/**
 * @file
 * Tests for the CoreComplex idle-skip machinery: an inert core (all
 * in-flight work blocked on inbound messages) must jump its clock to
 * the next relevant time instead of burning one host step per stall
 * cycle, clamp at the pacing limit, and report WaitInbound when
 * free-running with nothing to do. Under exact accounting a skip must
 * leave the same clock and counters as stepping every cycle; under
 * either accounting, re-entering a core known to be inert in O(1)
 * must leave what a full evaluation of every visit leaves. A cycle the
 * core calls inert must emit nothing, leave the core as it was and
 * move only the counters in inertCounters.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/mesi.hh"
#include "core/core_complex.hh"
#include "workload/kernels.hh"
#include "workload/trace.hh"

using namespace slacksim;

namespace {

SimConfig
oneCoreConfig()
{
    SimConfig config;
    config.target.numCores = 1;
    config.workload.numThreads = 1;
    return config;
}

/** Trace: a single missing load, then End. */
TraceProgram
singleLoadTrace()
{
    TraceProgram prog;
    TraceBuilder b(prog);
    b.load(0x100000, 0);
    b.end();
    return prog;
}

BusMsg
fill(Addr line, Tick ts, CacheKind cache = CacheKind::Data)
{
    BusMsg m;
    m.type = MsgType::Fill;
    m.addr = line;
    m.ts = ts;
    m.grantState = static_cast<std::uint8_t>(MesiState::Exclusive);
    m.cache = cache;
    return m;
}

/**
 * Single-step until the core's data GetS is outstanding and the core
 * is inert: instruction-fetch misses are answered inline, the data
 * miss is left pending. @return data requests seen.
 */
std::size_t
runUntilInert(CoreComplex &cc, int max_steps = 100)
{
    std::size_t data_requests = 0;
    BusMsg msg;
    for (int i = 0; i < max_steps; ++i) {
        cc.cycle(cc.localTime()); // single-step pacing
        while (cc.outQ().pop(msg)) {
            if (msg.cache == CacheKind::Instr)
                cc.inQ().push(fill(msg.addr, msg.ts + 2,
                                   CacheKind::Instr));
            else
                ++data_requests;
        }
        if (data_requests > 0 && i > 20)
            break;
    }
    return data_requests;
}

} // namespace

TEST(CoreComplexSkip, JumpsToInqHeadTimestamp)
{
    const SimConfig config = oneCoreConfig();
    const TraceProgram prog = singleLoadTrace();
    CoreComplex cc(config, 0, &prog, 0x10000);
    const std::size_t requests = runUntilInert(cc);
    ASSERT_GE(requests, 1u); // the data GetS is outstanding

    const Tick before = cc.localTime();
    ASSERT_TRUE(cc.inQ().push(fill(0x100000, 500)));
    const auto outcome = cc.cycle(10000);
    EXPECT_EQ(outcome, CoreComplex::CycleOutcome::Progress);
    // The inert core must jump straight to the fill's timestamp.
    EXPECT_EQ(cc.localTime(), 500u);
    EXPECT_EQ(cc.stats().idleCycles, 500u - before - 1);

    // The next cycle applies the fill and the load completes.
    cc.cycle(10000);
    cc.cycle(10000);
    cc.cycle(10000);
    EXPECT_TRUE(cc.finished());
}

TEST(CoreComplexSkip, ClampsToPacingLimit)
{
    const SimConfig config = oneCoreConfig();
    const TraceProgram prog = singleLoadTrace();
    CoreComplex cc(config, 0, &prog, 0x10000);
    runUntilInert(cc);

    // Empty InQ, nothing internal pending: the skip may only reach
    // max_local + 1.
    const auto outcome = cc.cycle(200);
    EXPECT_EQ(outcome, CoreComplex::CycleOutcome::Progress);
    EXPECT_EQ(cc.localTime(), 201u);
}

TEST(CoreComplexSkip, WaitInboundWhenFreeRunningAndIdle)
{
    const SimConfig config = oneCoreConfig();
    const TraceProgram prog = singleLoadTrace();
    CoreComplex cc(config, 0, &prog, 0x10000);
    runUntilInert(cc);

    const Tick before = cc.localTime();
    const auto outcome = cc.cycle(maxTick - 1);
    EXPECT_EQ(outcome, CoreComplex::CycleOutcome::WaitInbound);
    EXPECT_EQ(cc.localTime(), before); // frozen, not advanced
}

TEST(CoreComplexSkip, FutureHeadDoesNotBlockEarlierJumpTarget)
{
    // A fill whose timestamp lies beyond the pacing limit: the core
    // jumps to the limit, not to the head.
    const SimConfig config = oneCoreConfig();
    const TraceProgram prog = singleLoadTrace();
    CoreComplex cc(config, 0, &prog, 0x10000);
    runUntilInert(cc);

    ASSERT_TRUE(cc.inQ().push(fill(0x100000, 100000)));
    cc.cycle(300);
    EXPECT_EQ(cc.localTime(), 301u);
}

TEST(CoreComplexSkip, BusyCoreNeverSkips)
{
    // A long compute burst keeps the core busy: local time advances
    // strictly one cycle per call even with a generous pacing limit.
    SimConfig config = oneCoreConfig();
    TraceProgram prog;
    prog.codeFootprint = 256;
    TraceBuilder b(prog);
    b.compute(400);
    b.end();
    CoreComplex cc(config, 0, &prog, 0x10000);

    // Answer the I-fetch misses inline.
    for (int i = 0; i < 200 && !cc.finished(); ++i) {
        const Tick before = cc.localTime();
        cc.cycle(maxTick - 2);
        BusMsg msg;
        while (cc.outQ().pop(msg))
            cc.inQ().push(fill(msg.addr, msg.ts + 3, msg.cache));
        if (cc.finished())
            break;
        EXPECT_LE(cc.localTime(), before + 4)
            << "unexpected large jump while busy";
    }
}

namespace {

/**
 * Answers one complex's requests the way an idle uncore would:
 * fills (exclusive data, modified on GetM) 40 cycles after the
 * request, sync grants after 6. @return the requests answered.
 */
std::vector<BusMsg>
answerRequests(CoreComplex &cc)
{
    std::vector<BusMsg> requests;
    BusMsg msg;
    while (cc.outQ().pop(msg)) {
        requests.push_back(msg);
        BusMsg reply;
        switch (msg.type) {
          case MsgType::GetS:
          case MsgType::GetM:
            reply = fill(msg.addr, msg.ts + 40, msg.cache);
            if (msg.type == MsgType::GetM)
                reply.grantState =
                    static_cast<std::uint8_t>(MesiState::Modified);
            else if (msg.cache == CacheKind::Instr)
                reply.grantState =
                    static_cast<std::uint8_t>(MesiState::Shared);
            break;
          case MsgType::LockAcq:
          case MsgType::BarArrive:
            reply.type = MsgType::SyncGrant;
            reply.sync = msg.sync;
            reply.ts = msg.ts + 6;
            break;
          default:
            continue; // writebacks and releases: no reply
        }
        EXPECT_TRUE(cc.inQ().push(reply));
    }
    return requests;
}

} // namespace

namespace {

/**
 * Loads and stores to fresh lines fill the ROB, the store buffer and
 * the MSHRs while their fills are in flight; locks and barriers stall
 * the ROB head. Every stall counter moves.
 */
TraceProgram
stallingTrace()
{
    TraceProgram prog;
    prog.codeFootprint = 4096;
    TraceBuilder b(prog);
    for (Addr i = 0; i < 60; ++i) {
        b.load(0x100000 + i * 64, 2);
        b.compute(3);
        b.store(0x200000 + (i % 12) * 64);
        if (i % 15 == 0) {
            b.lock(0);
            b.store(0x300000);
            b.unlock(0);
        }
        if (i % 20 == 19)
            b.barrier(0);
    }
    b.end();
    return prog;
}

/**
 * Advance @p cc with a full pipeline evaluation, never an O(1)
 * re-entry: restoring the core from its own snapshot leaves every
 * counter, clock and queue as it was but clears what it knew about
 * being inert.
 */
CoreComplex::CycleOutcome
evaluateInFull(CoreComplex &cc, Tick max_local,
               std::uint32_t skip_budget = 0xffffffff,
               CoreComplex::StallAccounting accounting =
                   CoreComplex::StallAccounting::Idle)
{
    SnapshotWriter w;
    cc.save(w);
    SnapshotReader r(w.bytes());
    cc.restore(r);
    return cc.cycle(max_local, skip_budget, accounting);
}

/** Answer both cores' requests and require they made the same ones. */
void
expectSameRequests(CoreComplex &want_core, CoreComplex &got_core)
{
    const auto want = answerRequests(want_core);
    const auto got = answerRequests(got_core);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].type, got[i].type);
        EXPECT_EQ(want[i].addr, got[i].addr);
        EXPECT_EQ(want[i].ts, got[i].ts);
        EXPECT_EQ(want[i].seq, got[i].seq);
    }
}

} // namespace

TEST(CoreComplexSkip, ExactSkipMatchesSteppingEveryCycle)
{
    SimConfig config = oneCoreConfig();
    const TraceProgram prog = stallingTrace();
    CoreComplex stepped(config, 0, &prog, 0x10000);
    CoreComplex skipping(config, 0, &prog, 0x10000);

    std::size_t skip_calls = 0;
    std::size_t step_calls = 0;
    while (!skipping.finished() && skip_calls < 100000) {
        // A generous pacing window: only the core's own wake times
        // bound the skip.
        skipping.cycle(skipping.localTime() + 1000, 0xffffffff,
                       CoreComplex::StallAccounting::Exact);
        ++skip_calls;
        while (stepped.localTime() < skipping.localTime() &&
               !stepped.finished()) {
            // One fully evaluated cycle per call.
            evaluateInFull(stepped, stepped.localTime());
            ++step_calls;
        }
        ASSERT_EQ(stepped.localTime(), skipping.localTime());
        ASSERT_TRUE(stepped.stats() == skipping.stats())
            << "diverged at cycle " << skipping.localTime();
        expectSameRequests(stepped, skipping);
    }
    EXPECT_TRUE(skipping.finished());
    EXPECT_TRUE(stepped.finished());
    EXPECT_EQ(stepped.inertReentries(), 0u);
    const CoreStats &s = skipping.stats();
    EXPECT_EQ(s.idleCycles, 0u); // exact skips never count idle time
    for (const std::uint64_t stalls :
         {s.robFullCycles, s.sbFullCycles, s.syncStallCycles,
          s.fetchStallCycles}) {
        EXPECT_GT(stalls, 0u);
    }
    // The skipping core spent far fewer calls on the same cycles.
    EXPECT_LT(skip_calls * 2, step_calls);
}

/** Slack pacing windows: max_local = clock + window - 1. */
class IdleReentry : public ::testing::TestWithParam<Tick>
{
};

TEST_P(IdleReentry, MatchesFullEvaluationAfterEveryCall)
{
    // Two cores see the same calls under slack (Idle) accounting. The
    // reference evaluates its pipeline on every call; the other
    // re-enters in O(1) while it knows it is inert. Outcomes, clocks,
    // counters and requests must agree after every call.
    const Tick window = GetParam();
    SimConfig config = oneCoreConfig();
    const TraceProgram prog = stallingTrace();
    CoreComplex reference(config, 0, &prog, 0x10000);
    CoreComplex reentering(config, 0, &prog, 0x10000);

    std::size_t calls = 0;
    while (!reentering.finished() && calls < 200000) {
        const Tick max_local = reentering.localTime() + window - 1;
        // Vary the skip budget as an engine's burst remainder does.
        const auto budget = static_cast<std::uint32_t>(1 + calls % 7);
        const auto got = reentering.cycle(max_local, budget);
        const auto want = evaluateInFull(reference, max_local, budget);
        ++calls;
        ASSERT_EQ(want, got) << "call " << calls;
        ASSERT_EQ(reference.localTime(), reentering.localTime());
        ASSERT_TRUE(reference.stats() == reentering.stats())
            << "diverged at cycle " << reentering.localTime();
        expectSameRequests(reference, reentering);
    }
    EXPECT_TRUE(reentering.finished());
    EXPECT_TRUE(reference.finished());
    EXPECT_EQ(reference.inertReentries(), 0u);
    EXPECT_GT(reentering.inertReentries(), 0u);
    EXPECT_EQ(reentering.evaluations() + reentering.inertReentries(),
              reference.evaluations());
    if (window > 1) {
        EXPECT_GT(reentering.stats().idleCycles, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(PacingWindows, IdleReentry,
                         ::testing::Values<Tick>(1, 4, 64));

/** What both cores go through between two exact re-entries. */
enum class Interleave
{
    StatsRead,   //!< compare stats() on the spot
    SaveRestore, //!< a save()/restore() round trip, or a rollback
    ResetStats,  //!< resetStats() (a warmup discard)
};

class LazyExactAccounting : public ::testing::TestWithParam<Interleave>
{
};

TEST_P(LazyExactAccounting, MatchesEagerReferenceAtEveryPosition)
{
    // Exact re-entries pend their skipped cycles and fold them only
    // when the counters are read or replaced. The reference evaluates
    // every cycle in full (IdleReentry's restore-from-snapshot
    // reference), so its counters are always current. Each run puts
    // the operation after every `period`-th call, from its own
    // offset: over all runs it lands after every call. Nothing else
    // reads the counters, and short pacing windows (a sorted-service
    // horizon's few cycles) re-enter an inert core call after call,
    // so pended cycles pile up in between.
    constexpr std::size_t period = 5;
    const Interleave op = GetParam();
    SimConfig config = oneCoreConfig();
    const TraceProgram prog = stallingTrace();
    for (std::size_t offset = 0; offset < period; ++offset) {
        SCOPED_TRACE("offset " + std::to_string(offset));
        CoreComplex reference(config, 0, &prog, 0x10000);
        CoreComplex lazy(config, 0, &prog, 0x10000);
        // Both cores' images at the previous operation (rollbacks).
        std::vector<std::uint8_t> ref_image;
        std::vector<std::uint8_t> lazy_image;
        std::size_t calls = 0;
        std::size_t ops = 0;
        // Re-entries since the lazy core's last full evaluation.
        std::uint64_t streak = 0;
        bool piled_up = false;
        while (!lazy.finished() && calls < 200000) {
            const std::uint64_t evaluations = lazy.evaluations();
            const std::uint64_t reentries = lazy.inertReentries();
            lazy.cycle(lazy.localTime() + calls % 7, 0xffffffff,
                       CoreComplex::StallAccounting::Exact);
            ++calls;
            if (lazy.evaluations() != evaluations)
                streak = 0;
            streak += lazy.inertReentries() - reentries;
            while (reference.localTime() < lazy.localTime() &&
                   !reference.finished()) {
                evaluateInFull(reference, reference.localTime());
            }
            ASSERT_EQ(reference.localTime(), lazy.localTime());
            expectSameRequests(reference, lazy);
            if (calls % period != offset)
                continue;
            // Two re-entries since the last evaluation: nothing has
            // folded what they pended.
            piled_up |= streak >= 2;
            switch (op) {
              case Interleave::StatsRead:
                break;
              case Interleave::SaveRestore: {
                // Every other operation saves both cores and restores
                // what it saved; the rest roll both back to the last
                // save, which must drop what the lazy core pended
                // since.
                if (ops % 2 == 0) {
                    SnapshotWriter ref_w;
                    SnapshotWriter lazy_w;
                    reference.save(ref_w);
                    lazy.save(lazy_w);
                    ref_image = ref_w.bytes();
                    lazy_image = lazy_w.bytes();
                }
                SnapshotReader ref_r(ref_image);
                SnapshotReader lazy_r(lazy_image);
                reference.restore(ref_r);
                lazy.restore(lazy_r);
                break;
              }
              case Interleave::ResetStats:
                reference.resetStats();
                lazy.resetStats();
                break;
            }
            ++ops;
            ASSERT_TRUE(reference.stats() == lazy.stats())
                << "diverged at cycle " << lazy.localTime() << ", call "
                << calls;
        }
        EXPECT_TRUE(lazy.finished());
        EXPECT_TRUE(reference.finished());
        EXPECT_EQ(reference.localTime(), lazy.localTime());
        EXPECT_TRUE(reference.stats() == lazy.stats());
        EXPECT_GT(ops, 10u);
        EXPECT_TRUE(piled_up) << "no operation met pended cycles";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Operations, LazyExactAccounting,
    ::testing::Values(Interleave::StatsRead, Interleave::SaveRestore,
                      Interleave::ResetStats),
    [](const ::testing::TestParamInfo<Interleave> &info) {
        switch (info.param) {
          case Interleave::StatsRead: return std::string("StatsRead");
          case Interleave::SaveRestore: return std::string("SaveRestore");
          case Interleave::ResetStats: return std::string("ResetStats");
        }
        return std::string();
    });

namespace {

/** @return @p core's save() bytes without its trailing CoreStats. */
std::vector<std::uint8_t>
coreState(const OooCore &core)
{
    SnapshotWriter w;
    core.save(w);
    std::vector<std::uint8_t> bytes = w.bytes();
    bytes.resize(bytes.size() - sizeof(CoreStats));
    return bytes;
}

/** @return @p stats with the counters in inertCounters zeroed. */
CoreStats
progressCounters(CoreStats stats)
{
    for (std::uint64_t CoreStats::*counter : inertCounters)
        stats.*counter = 0;
    return stats;
}

/**
 * Step @p prog's core one cycle at a time, applying its InQ as
 * CoreComplex does and answering its requests with answerRequests().
 * Every cycle that OooCore::cycle() reports as no progress must emit
 * no message, leave the core's own state as it was and move no
 * counter outside inertCounters: the verdict and the inert delta the
 * O(1) re-entries build on. @return the inert cycles seen.
 */
std::size_t
expectInertCyclesChangeNothing(const TraceProgram &prog)
{
    CoreComplex cc(oneCoreConfig(), 0, &prog, 0x10000);
    OooCore &core = cc.core();
    std::vector<BusMsg> out;
    std::size_t inert = 0;
    std::size_t progressed = 0;
    for (Tick now = 0; !core.finished() && now < 1000000; ++now) {
        for (std::uint32_t applied = 0;
             applied < CoreComplex::inboundPerCycle; ++applied) {
            const BusMsg *head = cc.inQ().front();
            if (!head || head->ts > now)
                break;
            core.handleInbound(*head, now, out);
            cc.inQ().popFront();
        }
        const std::vector<std::uint8_t> before = coreState(core);
        const CoreStats counted = progressCounters(cc.stats());
        const std::size_t emitted = out.size();
        if (core.cycle(now, out)) {
            ++progressed;
        } else {
            ++inert;
            if (out.size() != emitted) {
                ADD_FAILURE() << "inert cycle " << now
                              << " emitted a message";
                break;
            }
            if (coreState(core) != before) {
                ADD_FAILURE() << "inert cycle " << now
                              << " changed the core's state";
                break;
            }
            if (!(progressCounters(cc.stats()) == counted)) {
                ADD_FAILURE() << "inert cycle " << now
                              << " moved a counter outside inertCounters";
                break;
            }
        }
        for (const BusMsg &msg : out)
            EXPECT_TRUE(cc.outQ().push(msg));
        out.clear();
        answerRequests(cc);
    }
    EXPECT_TRUE(core.finished());
    EXPECT_GT(progressed, 0u);
    return inert;
}

} // namespace

TEST(CoreProgress, InertCyclesChangeNothingOnStallingTrace)
{
    EXPECT_GT(expectInertCyclesChangeNothing(stallingTrace()), 100u);
}

TEST(CoreProgress, FinishingIsProgress)
{
    // The last store drains when its fill lands (OooCore::
    // handleInbound), so the cycle that then finds the core finished
    // changes nothing else.
    TraceProgram prog;
    TraceBuilder b(prog);
    b.store(0x200000);
    b.end();
    EXPECT_GT(expectInertCyclesChangeNothing(prog), 0u);
}

TEST(CoreProgress, InertCyclesChangeNothingOnGoldenFftThread)
{
    // The golden fft input (golden_test), thread 0 run alone: every
    // request is answered, so its barriers release without peers.
    WorkloadParams params;
    params.kernel = "fft";
    params.fftPoints = 1024;
    const Workload workload = makeWorkload(params);
    EXPECT_GT(expectInertCyclesChangeNothing(workload.threads[0]), 100u);
}
