/**
 * @file
 * Tests for the hot-path data structures introduced by the manager
 * overhaul: SpscQueue batch operations (pushN/popN/consumeAll and the
 * cached index mirrors) under single-threaded edge cases and a
 * producer/consumer stress pair, the k-way MergeTree's equivalence to
 * a globally sorted (ts, src, seq) order under the manager's
 * watermark discipline, the ProgressBoard sleep/wake protocol, and
 * the >64-core delivery-wake path through a real engine run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <random>
#include <thread>
#include <tuple>
#include <vector>

#include "core/run.hh"
#include "util/core_bitset.hh"
#include "util/merge_tree.hh"
#include "util/progress_board.hh"
#include "util/spsc_queue.hh"

using namespace slacksim;

namespace {

TEST(SpscQueueBatch, PushNRespectsCapacity)
{
    SpscQueue<int> q(8); // a power of two: exactly 8 fit
    std::vector<int> items(q.capacity() + 5);
    for (std::size_t i = 0; i < items.size(); ++i)
        items[i] = static_cast<int>(i);

    EXPECT_EQ(q.pushN(items.data(), items.size()), q.capacity());
    EXPECT_TRUE(q.full());
    EXPECT_FALSE(q.hasFreeSpace(1));
    EXPECT_EQ(q.pushN(items.data(), 1), 0u);

    int out = -1;
    EXPECT_TRUE(q.pop(out));
    EXPECT_EQ(out, 0);
    EXPECT_TRUE(q.hasFreeSpace(1));
}

TEST(SpscQueueBatch, PushNStopsAtCapacityAcrossWrapAround)
{
    // A ring of 8 slots takes exactly 8 elements from every start
    // position, in one batch or in several.
    constexpr std::size_t cap = 8;
    int items[cap + 3];
    for (std::size_t i = 0; i < cap + 3; ++i)
        items[i] = static_cast<int>(i);
    for (std::size_t skew = 0; skew <= 2 * cap; ++skew) {
        SpscQueue<int> q(cap);
        ASSERT_EQ(q.capacity(), cap);
        int out[cap + 3];
        for (std::size_t i = 0; i < skew; ++i) {
            ASSERT_EQ(q.pushN(items, 1), 1u);
            ASSERT_EQ(q.popN(out, 1), 1u);
        }
        EXPECT_EQ(q.pushN(items, 3), 3u);
        EXPECT_TRUE(q.hasFreeSpace(cap - 3));
        EXPECT_FALSE(q.hasFreeSpace(cap - 2));
        EXPECT_EQ(q.pushN(items + 3, cap), cap - 3) << "skew " << skew;
        EXPECT_TRUE(q.full());
        EXPECT_EQ(q.pushN(items, 1), 0u);
        EXPECT_EQ(q.popN(out, cap + 3), cap);
        for (std::size_t i = 0; i < cap; ++i)
            EXPECT_EQ(out[i], static_cast<int>(i));
        EXPECT_TRUE(q.empty());
    }
}

TEST(SpscQueueBatch, PopNAndConsumeAllPreserveOrder)
{
    SpscQueue<int> q(64);
    for (int i = 0; i < 40; ++i)
        EXPECT_TRUE(q.push(i));

    int buf[16];
    EXPECT_EQ(q.popN(buf, 16), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(buf[i], i);

    std::vector<int> rest;
    EXPECT_EQ(q.consumeAll([&](const int &v) { rest.push_back(v); }),
              24u);
    for (int i = 0; i < 24; ++i)
        EXPECT_EQ(rest[i], 16 + i);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.popN(buf, 16), 0u);
}

TEST(SpscQueueBatch, WrapAroundBatches)
{
    SpscQueue<std::uint64_t> q(16);
    std::uint64_t next_in = 0;
    std::uint64_t next_out = 0;
    std::uint64_t buf[11];
    // Many unaligned batch sizes force every wrap position.
    for (int round = 0; round < 1000; ++round) {
        const std::size_t n = round % 11 + 1;
        for (std::size_t i = 0; i < n; ++i)
            buf[i] = next_in + i;
        next_in += q.pushN(buf, n);
        const std::size_t got = q.popN(buf, round % 7 + 1);
        for (std::size_t i = 0; i < got; ++i)
            EXPECT_EQ(buf[i], next_out + i);
        next_out += got;
    }
    while (next_out < next_in) {
        std::uint64_t v = 0;
        ASSERT_TRUE(q.pop(v));
        EXPECT_EQ(v, next_out++);
    }
}

/** Producer/consumer stress: mixed single and batch operations on
 *  both sides must still deliver a perfect FIFO sequence. */
TEST(SpscQueueBatch, FifoUnderProducerConsumerStress)
{
    constexpr std::uint64_t total = 200000;
    SpscQueue<std::uint64_t> q(128);

    std::thread producer([&q] {
        std::mt19937 rng(12345);
        std::uint64_t next = 0;
        std::uint64_t buf[17];
        while (next < total) {
            if (rng() % 3 == 0) {
                if (q.push(next))
                    ++next;
            } else {
                std::size_t n = rng() % 17 + 1;
                n = static_cast<std::size_t>(
                    std::min<std::uint64_t>(n, total - next));
                for (std::size_t i = 0; i < n; ++i)
                    buf[i] = next + i;
                next += q.pushN(buf, n);
            }
        }
    });

    std::mt19937 rng(54321);
    std::uint64_t expect = 0;
    std::uint64_t buf[23];
    while (expect < total) {
        switch (rng() % 3) {
          case 0: {
            std::uint64_t v = 0;
            if (q.pop(v)) {
                ASSERT_EQ(v, expect);
                ++expect;
            }
            break;
          }
          case 1: {
            const std::size_t got = q.popN(buf, rng() % 23 + 1);
            for (std::size_t i = 0; i < got; ++i)
                ASSERT_EQ(buf[i], expect + i);
            expect += got;
            break;
          }
          default:
            q.consumeAll([&](const std::uint64_t &v) {
                ASSERT_EQ(v, expect);
                ++expect;
            });
            break;
        }
    }
    producer.join();
    EXPECT_TRUE(q.empty());
}

/** The manager's event shape, reduced to its ordering key. */
struct Ev
{
    Tick ts;
    std::uint32_t src;
    std::uint64_t seq;
};

struct RunHeadLess
{
    const std::vector<std::deque<Ev>> *runs;

    bool
    operator()(std::uint32_t a, std::uint32_t b) const
    {
        const auto &ra = (*runs)[a];
        const auto &rb = (*runs)[b];
        if (ra.empty())
            return false;
        if (rb.empty())
            return true;
        if (ra.front().ts != rb.front().ts)
            return ra.front().ts < rb.front().ts;
        return a < b;
    }
};

std::vector<std::tuple<Tick, std::uint32_t, std::uint64_t>>
sortedReference(const std::vector<Ev> &all)
{
    std::vector<std::tuple<Tick, std::uint32_t, std::uint64_t>> ref;
    ref.reserve(all.size());
    for (const Ev &e : all)
        ref.emplace_back(e.ts, e.src, e.seq);
    std::sort(ref.begin(), ref.end());
    return ref;
}

/** Drain-everything equivalence: per-source monotone runs merged by
 *  the tree must come out in global (ts, src, seq) order. */
TEST(MergeTree, DrainMatchesGlobalSort)
{
    constexpr std::uint32_t sources = 13; // non-power-of-two padding
    std::mt19937 rng(99);
    std::vector<std::deque<Ev>> runs(sources);
    MergeTree<RunHeadLess> tree(sources, RunHeadLess{&runs});

    std::vector<Ev> all;
    std::vector<Tick> clock(sources, 0);
    std::vector<std::uint64_t> seq(sources, 0);
    for (int i = 0; i < 5000; ++i) {
        const std::uint32_t s = rng() % sources;
        clock[s] += rng() % 3; // frequent cross-source ts collisions
        const Ev e{clock[s], s, seq[s]++};
        all.push_back(e);
        const bool was_empty = runs[s].empty();
        runs[s].push_back(e);
        if (was_empty)
            tree.update(s);
    }

    std::vector<std::tuple<Tick, std::uint32_t, std::uint64_t>> merged;
    std::size_t staged = all.size();
    while (staged) {
        const std::uint32_t w = tree.winner();
        ASSERT_NE(w, MergeTree<RunHeadLess>::none);
        const Ev e = runs[w].front();
        runs[w].pop_front();
        --staged;
        tree.update(w);
        merged.emplace_back(e.ts, e.src, e.seq);
    }
    EXPECT_EQ(merged, sortedReference(all));
}

/** Incremental equivalence under the engine's watermark discipline:
 *  interleave pushes with partial drains bounded by the min source
 *  clock — exactly the serviceSorted(safe) contract. */
TEST(MergeTree, WatermarkedServiceMatchesGlobalSort)
{
    constexpr std::uint32_t sources = 6;
    std::mt19937 rng(7);
    std::vector<std::deque<Ev>> runs(sources);
    MergeTree<RunHeadLess> tree(sources, RunHeadLess{&runs});

    std::vector<Ev> all;
    std::vector<Tick> clock(sources, 0);
    std::vector<std::uint64_t> seq(sources, 0);
    std::vector<std::tuple<Tick, std::uint32_t, std::uint64_t>> merged;
    std::size_t staged = 0;

    for (int round = 0; round < 400; ++round) {
        // Each source advances its clock and emits 0..3 events at it.
        for (std::uint32_t s = 0; s < sources; ++s) {
            clock[s] += rng() % 5;
            const std::uint32_t emit = rng() % 4;
            for (std::uint32_t i = 0; i < emit; ++i) {
                const Ev e{clock[s], s, seq[s]++};
                all.push_back(e);
                const bool was_empty = runs[s].empty();
                runs[s].push_back(e);
                ++staged;
                if (was_empty)
                    tree.update(s);
            }
        }
        // Safe time = min clock: everything below it is staged.
        const Tick safe = *std::min_element(clock.begin(), clock.end());
        while (staged) {
            const std::uint32_t w = tree.winner();
            if (runs[w].front().ts >= safe)
                break;
            const Ev e = runs[w].front();
            runs[w].pop_front();
            --staged;
            tree.update(w);
            merged.emplace_back(e.ts, e.src, e.seq);
        }
    }
    while (staged) {
        const std::uint32_t w = tree.winner();
        const Ev e = runs[w].front();
        runs[w].pop_front();
        --staged;
        tree.update(w);
        merged.emplace_back(e.ts, e.src, e.seq);
    }
    EXPECT_EQ(merged, sortedReference(all));
}

/** The Dekker sleep/wake protocol must not lose the final wakeup. */
TEST(ProgressBoard, SleepWakesOnBump)
{
    constexpr std::uint64_t bumps = 20000;
    ProgressBoard board(2);
    std::atomic<bool> done{false};

    std::thread producer([&] {
        for (std::uint64_t i = 0; i < bumps; ++i)
            board.bump(0);
        done.store(true, std::memory_order_release);
        board.bump(1);
    });

    // Consumer: sleep whenever the sum is unchanged; must always be
    // woken again and observe the final total.
    std::uint64_t seen = 0;
    while (!done.load(std::memory_order_acquire)) {
        const std::uint64_t s = board.sum();
        if (s == seen) {
            board.sleep(s, [&] {
                return !done.load(std::memory_order_acquire);
            });
        }
        seen = board.sum();
    }
    producer.join();
    EXPECT_EQ(board.sum(), bumps + 1);
}

/**
 * The manager's delivery-wake set was a single `1ull << dst` mask
 * that silently wrapped for dst >= 64; the replacement CoreBitset
 * must track indices across word boundaries exactly. (Whole-system
 * core counts are separately capped at 64 by config validation
 * because the uncore's sharer masks are one 64-bit word — this
 * utility is the part that no longer depends on that cap.)
 */
TEST(CoreBitset, TracksBitsBeyond64)
{
    CoreBitset set(200);
    EXPECT_FALSE(set.any());

    const std::vector<std::uint32_t> bits{0, 3, 63, 64, 65, 127,
                                          128, 199};
    for (const std::uint32_t b : bits)
        set.set(b);
    // Idempotent re-set of an already-set bit.
    set.set(64);
    EXPECT_TRUE(set.any());

    std::vector<std::uint32_t> drained;
    set.drain([&](std::uint32_t b) { drained.push_back(b); });
    EXPECT_EQ(drained, bits); // ascending, no duplicates, no wraps
    EXPECT_FALSE(set.any());

    // Drain cleared everything: a second drain sees nothing.
    set.drain([&](std::uint32_t) { FAIL() << "set not cleared"; });

    // Reusable after clearing.
    set.set(130);
    drained.clear();
    set.drain([&](std::uint32_t b) { drained.push_back(b); });
    EXPECT_EQ(drained, (std::vector<std::uint32_t>{130}));
}

/**
 * End-to-end delivery wakeups at the full supported width: with 64
 * cores the highest delivery target exercises bit 63, and unbounded
 * (free-running) cores park until the manager's delivery wake. A
 * missed wake hangs the run until the test times out: the threaded
 * manager then sleeps on the progress board, where
 * EngineConfig::watchdogSeconds is never checked.
 */
TEST(ManyCore, DeliveryWakeupsAtFullWidth)
{
    SimConfig config;
    config.workload.kernel = "uniform";
    config.target.numCores = 64;
    config.workload.numThreads = 64;
    config.workload.iters = 40;
    config.workload.footprintBytes = 256 * 1024;
    config.engine.scheme = SchemeKind::Unbounded;
    config.engine.parallelHost = true;
    config.engine.watchdogSeconds = 120;

    const RunResult r = runSimulation(config);
    ASSERT_EQ(r.perCore.size(), 64u);
    for (std::size_t c = 0; c < r.perCore.size(); ++c)
        EXPECT_GT(r.perCore[c].committedInstrs, 0u) << "core " << c;
}

} // namespace
