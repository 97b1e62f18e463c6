/**
 * @file
 * Tests for the out-of-order core timing model, driven through a
 * CoreComplex with a scripted mini-manager that answers bus requests
 * after a fixed latency.
 */

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "cache/mesi.hh"
#include "core/core_complex.hh"
#include "workload/trace.hh"

using namespace slacksim;

namespace {

/** Scripted manager: answers every request after `latency` cycles. */
struct MiniManager
{
    explicit MiniManager(CoreComplex &cc, Tick latency = 5)
        : cc_(cc), latency_(latency)
    {
    }

    /** Advance one core cycle and play manager. */
    void
    step()
    {
        // Deliver matured responses first.
        while (!inFlight_.empty() &&
               inFlight_.front().ts <= cc_.localTime() + 1) {
            // Push as soon as possible; the core applies them when
            // its local time reaches the timestamp.
            if (!cc_.inQ().push(inFlight_.front()))
                break;
            inFlight_.pop_front();
        }
        ASSERT_EQ(cc_.cycle(cc_.localTime()),
                  CoreComplex::CycleOutcome::Progress);
        BusMsg msg;
        while (cc_.outQ().pop(msg))
            handle(msg);
    }

    void
    handle(const BusMsg &msg)
    {
        lastRequests.push_back(msg);
        BusMsg resp;
        resp.addr = msg.addr;
        resp.cache = msg.cache;
        resp.src = msg.src;
        resp.sync = msg.sync;
        resp.ts = msg.ts + latency_;
        switch (msg.type) {
          case MsgType::GetS:
            resp.type = MsgType::Fill;
            resp.grantState =
                static_cast<std::uint8_t>(MesiState::Exclusive);
            inFlight_.push_back(resp);
            break;
          case MsgType::GetM:
            resp.type = MsgType::Fill;
            resp.grantState =
                static_cast<std::uint8_t>(MesiState::Modified);
            inFlight_.push_back(resp);
            break;
          case MsgType::Upgrade:
            resp.type = MsgType::UpgradeAck;
            inFlight_.push_back(resp);
            break;
          case MsgType::PutM:
            break; // no response
          case MsgType::LockAcq:
          case MsgType::BarArrive:
            if (!suppressSync) {
                resp.type = MsgType::SyncGrant;
                inFlight_.push_back(resp);
            } else {
                heldSync.push_back(resp);
            }
            break;
          case MsgType::LockRel:
            ++lockReleases;
            break;
          default:
            FAIL() << "unexpected request " << msgTypeName(msg.type);
        }
    }

    /** Release sync grants held back by suppressSync. */
    void
    releaseSync(Tick ts)
    {
        for (BusMsg msg : heldSync) {
            msg.type = MsgType::SyncGrant;
            msg.ts = ts;
            inFlight_.push_back(msg);
        }
        heldSync.clear();
    }

    CoreComplex &cc_;
    Tick latency_;
    std::deque<BusMsg> inFlight_;
    std::vector<BusMsg> lastRequests;
    std::vector<BusMsg> heldSync;
    bool suppressSync = false;
    int lockReleases = 0;
};

SimConfig
oneCoreConfig()
{
    SimConfig config;
    config.target.numCores = 1;
    config.workload.numThreads = 1;
    return config;
}

/** Run until the core finishes or `limit` cycles elapse. */
Tick
runToCompletion(CoreComplex &cc, MiniManager &mgr, Tick limit = 100000)
{
    while (!cc.finished() && cc.localTime() < limit)
        mgr.step();
    EXPECT_TRUE(cc.finished()) << "core did not finish in " << limit;
    return cc.localTime();
}

} // namespace

TEST(OooCore, ComputeOnlyThroughputNearIssueWidth)
{
    TraceProgram prog;
    prog.codeFootprint = 256; // tiny loop body: 4 code lines
    TraceBuilder b(prog);
    b.compute(4000);
    b.end();

    const SimConfig config = oneCoreConfig();
    CoreComplex cc(config, 0, &prog, 0x10000);
    MiniManager mgr(cc);
    const Tick cycles = runToCompletion(cc, mgr);
    EXPECT_EQ(cc.stats().committedInstrs, 4000u);
    // 4-wide core: at least 1000 cycles, and little overhead beyond
    // the initial I-misses and pipeline fill.
    EXPECT_GE(cycles, 1000u);
    EXPECT_LE(cycles, 1100u);
}

TEST(OooCore, LoadMissLatencyStallsDependentWork)
{
    // A chain of load -> dependent compute across many lines.
    TraceProgram prog;
    TraceBuilder b(prog);
    for (int i = 0; i < 50; ++i)
        b.load(0x100000 + static_cast<Addr>(i) * 64, 1);
    b.end();

    const SimConfig config = oneCoreConfig();
    CoreComplex cc(config, 0, &prog, 0x10000);
    MiniManager mgr(cc, 50); // long memory latency
    const Tick cycles = runToCompletion(cc, mgr);
    EXPECT_EQ(cc.stats().committedLoads, 50u);
    EXPECT_EQ(cc.stats().l1dMisses, 50u);
    // The 8 MSHRs allow overlap, so far fewer than 50*50 cycles, but
    // the latency is not fully hidden either (ROB is 64).
    EXPECT_GT(cycles, 300u);
    EXPECT_LT(cycles, 3000u);
}

TEST(OooCore, LoadsHitAfterWarmup)
{
    TraceProgram prog;
    TraceBuilder b(prog);
    for (int pass = 0; pass < 2; ++pass)
        for (int i = 0; i < 16; ++i)
            b.load(0x100000 + static_cast<Addr>(i) * 64, 0);
    b.end();

    const SimConfig config = oneCoreConfig();
    CoreComplex cc(config, 0, &prog, 0x10000);
    MiniManager mgr(cc);
    runToCompletion(cc, mgr);
    EXPECT_EQ(cc.stats().l1dMisses, 16u);
    EXPECT_EQ(cc.stats().l1dHits, 16u);
}

TEST(OooCore, StoresDrainThroughStoreBuffer)
{
    TraceProgram prog;
    TraceBuilder b(prog);
    for (int i = 0; i < 20; ++i)
        b.store(0x200000 + static_cast<Addr>(i % 4) * 8);
    b.end();

    const SimConfig config = oneCoreConfig();
    CoreComplex cc(config, 0, &prog, 0x10000);
    MiniManager mgr(cc);
    runToCompletion(cc, mgr);
    EXPECT_EQ(cc.stats().committedStores, 20u);
    // All stores to one line: one GetM, then hits.
    EXPECT_EQ(cc.stats().l1dMisses, 1u);
    EXPECT_EQ(cc.core().storeBufferOccupancy(), 0u);
}

TEST(OooCore, LockWaitsForGrant)
{
    TraceProgram prog;
    TraceBuilder b(prog);
    b.lock(3);
    b.compute(10);
    b.unlock(3);
    b.end();

    const SimConfig config = oneCoreConfig();
    CoreComplex cc(config, 0, &prog, 0x10000);
    MiniManager mgr(cc);
    mgr.suppressSync = true;

    for (int i = 0; i < 200; ++i)
        mgr.step();
    EXPECT_FALSE(cc.finished());
    EXPECT_EQ(cc.stats().committedSyncOps, 0u);
    ASSERT_FALSE(mgr.heldSync.empty());
    EXPECT_EQ(mgr.heldSync[0].sync, 3u);

    mgr.releaseSync(cc.localTime() + 2);
    runToCompletion(cc, mgr);
    EXPECT_EQ(cc.stats().committedSyncOps, 2u); // lock + unlock
    EXPECT_EQ(mgr.lockReleases, 1);
    EXPECT_GT(cc.stats().syncStallCycles, 100u);
}

TEST(OooCore, BarrierBlocksUntilRelease)
{
    TraceProgram prog;
    TraceBuilder b(prog);
    b.compute(5);
    b.barrier(0);
    b.compute(5);
    b.end();

    const SimConfig config = oneCoreConfig();
    CoreComplex cc(config, 0, &prog, 0x10000);
    MiniManager mgr(cc);
    mgr.suppressSync = true;
    for (int i = 0; i < 100; ++i)
        mgr.step();
    EXPECT_FALSE(cc.finished());
    mgr.releaseSync(cc.localTime() + 2);
    runToCompletion(cc, mgr);
    EXPECT_EQ(cc.stats().committedInstrs, 11u);
}

TEST(OooCore, SyncActsAsStoreFence)
{
    // The lock request must not be sent while stores are buffered.
    TraceProgram prog;
    TraceBuilder b(prog);
    b.store(0x300000);
    b.lock(0);
    b.unlock(0);
    b.end();

    const SimConfig config = oneCoreConfig();
    CoreComplex cc(config, 0, &prog, 0x10000);
    MiniManager mgr(cc, 30);
    runToCompletion(cc, mgr);
    // Order of requests: I-fetch GetS, then GetM (store), then LockAcq.
    std::vector<MsgType> types;
    for (const auto &m : mgr.lastRequests)
        if (m.type == MsgType::GetM || m.type == MsgType::LockAcq ||
            m.type == MsgType::LockRel)
            types.push_back(m.type);
    ASSERT_EQ(types.size(), 3u);
    EXPECT_EQ(types[0], MsgType::GetM);
    EXPECT_EQ(types[1], MsgType::LockAcq);
    EXPECT_EQ(types[2], MsgType::LockRel);
}

TEST(OooCore, InstructionFetchMissesOnLargeFootprint)
{
    TraceProgram prog;
    prog.codeFootprint = 64 * 1024; // 4x the 16KB L1I
    TraceBuilder b(prog);
    b.compute(64 * 1024 / 4); // walk the whole footprint once
    b.end();

    const SimConfig config = oneCoreConfig();
    CoreComplex cc(config, 0, &prog, 0x10000);
    MiniManager mgr(cc);
    runToCompletion(cc, mgr, 1000000);
    // Every code line misses once: footprint / 64.
    EXPECT_EQ(cc.stats().l1iMisses, 64u * 1024 / 64);
    EXPECT_GT(cc.stats().fetchStallCycles, 0u);
}

TEST(OooCore, SnapshotRoundTripReproducesExecution)
{
    TraceProgram prog;
    TraceBuilder b(prog);
    for (int i = 0; i < 200; ++i) {
        b.load(0x100000 + static_cast<Addr>(i % 32) * 64, 2);
        if (i % 7 == 0)
            b.store(0x200000 + static_cast<Addr>(i % 8) * 64);
    }
    b.end();

    const SimConfig config = oneCoreConfig();
    CoreComplex cc(config, 0, &prog, 0x10000);
    MiniManager mgr(cc);
    for (int i = 0; i < 100; ++i)
        mgr.step();

    // Snapshot mid-flight (note: the scripted manager's in-flight
    // responses are part of the "world" here, so only snapshot at a
    // moment where none are pending).
    while (!mgr.inFlight_.empty())
        mgr.step();
    SnapshotWriter w;
    cc.save(w);

    const Tick t_snap = cc.localTime();
    std::vector<Tick> trace_a;
    while (!cc.finished()) {
        mgr.step();
        trace_a.push_back(cc.stats().committedInstrs);
    }

    SnapshotReader r(w.bytes());
    cc.restore(r);
    EXPECT_TRUE(r.exhausted());
    EXPECT_EQ(cc.localTime(), t_snap);

    MiniManager mgr2(cc);
    std::vector<Tick> trace_b;
    while (!cc.finished()) {
        mgr2.step();
        trace_b.push_back(cc.stats().committedInstrs);
    }
    EXPECT_EQ(trace_a, trace_b);
}

TEST(OooCore, TraceOfWholeChunksRunsToItsEnd)
{
    // Two full trace chunks, End last: fetch crosses one chunk
    // boundary and stops on the last record of the last chunk.
    constexpr std::size_t records = 2 * ChunkedTrace::chunkRecords;
    TraceProgram prog;
    TraceBuilder b(prog);
    for (std::size_t i = 0; i + 1 < records; ++i) {
        if (i % 2 == 0)
            b.load(0x100000 + static_cast<Addr>(i % 64) * 64);
        else
            b.compute(1);
    }
    b.end();
    ASSERT_EQ(prog.instrs.size(), records);

    const SimConfig config = oneCoreConfig();
    CoreComplex cc(config, 0, &prog, 0x10000);
    MiniManager mgr(cc);
    runToCompletion(cc, mgr, 10 * records);
    EXPECT_EQ(cc.committedUops(), prog.totalMicroOps());
}

TEST(OooCore, RobOccupancyBounded)
{
    TraceProgram prog;
    TraceBuilder b(prog);
    b.load(0x100000, 0);
    b.compute(500);
    b.end();

    SimConfig config = oneCoreConfig();
    config.target.core.robSize = 16;
    CoreComplex cc(config, 0, &prog, 0x10000);
    MiniManager mgr(cc, 100); // slow fill keeps the load at the head
    for (int i = 0; i < 50; ++i) {
        mgr.step();
        EXPECT_LE(cc.core().robOccupancy(), 16u);
    }
    runToCompletion(cc, mgr);
    EXPECT_EQ(cc.stats().committedInstrs, 501u);
}

TEST(OooCore, StoreBufferBackpressure)
{
    TraceProgram prog;
    TraceBuilder b(prog);
    for (int i = 0; i < 32; ++i)
        b.store(0x400000 + static_cast<Addr>(i) * 64); // all miss
    b.end();

    SimConfig config = oneCoreConfig();
    config.target.core.sbSize = 2;
    CoreComplex cc(config, 0, &prog, 0x10000);
    MiniManager mgr(cc, 40);
    runToCompletion(cc, mgr, 500000);
    EXPECT_EQ(cc.stats().committedStores, 32u);
    EXPECT_GT(cc.stats().sbFullCycles, 0u);
}
