/**
 * @file
 * Tests for the workload kernels: structural validity, determinism,
 * sharing patterns and input-scale handling. Includes a parameterized
 * sweep over every registered kernel.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "mem/address_space.hh"
#include "workload/kernels.hh"
#include "workload/trace.hh"
#include "util/logging.hh"

using namespace slacksim;

namespace {

WorkloadParams
smallParams(const std::string &kernel, unsigned threads = 8)
{
    WorkloadParams p;
    p.kernel = kernel;
    p.numThreads = threads;
    p.seed = 42;
    // Scale everything down so generation is fast in tests.
    p.bodies = 128;
    p.timesteps = 1;
    p.fftPoints = 1024;
    p.matrixN = 64;
    p.blockB = 8;
    p.molecules = 32;
    p.iters = 100;
    p.footprintBytes = 32 * 1024;
    return p;
}

/** Count barrier arrivals per (thread, id). */
std::map<SyncId, std::uint64_t>
barrierCounts(const TraceProgram &t)
{
    std::map<SyncId, std::uint64_t> counts;
    for (const auto &instr : t.instrs)
        if (instr.op() == TraceOp::Barrier)
            ++counts[instr.sync()];
    return counts;
}

} // namespace

class KernelSweep : public ::testing::TestWithParam<std::string>
{
};

TEST_P(KernelSweep, GeneratesValidWorkload)
{
    const Workload w = makeWorkload(smallParams(GetParam()));
    EXPECT_EQ(w.name, GetParam());
    EXPECT_EQ(w.threads.size(), 8u);
    EXPECT_GT(w.totalMicroOps(), 0u);
    // validateWorkload already ran inside makeWorkload; re-run to be
    // explicit that the structural invariants hold.
    validateWorkload(w);
}

TEST_P(KernelSweep, DeterministicAcrossRegenerations)
{
    const Workload a = makeWorkload(smallParams(GetParam()));
    const Workload b = makeWorkload(smallParams(GetParam()));
    ASSERT_EQ(a.threads.size(), b.threads.size());
    for (std::size_t t = 0; t < a.threads.size(); ++t) {
        const auto &ta = a.threads[t].instrs;
        const auto &tb = b.threads[t].instrs;
        ASSERT_EQ(ta.size(), tb.size()) << "thread " << t;
        for (std::size_t i = 0; i < ta.size(); ++i)
            EXPECT_EQ(ta[i].word(), tb[i].word()) << "record " << i;
    }
}

TEST_P(KernelSweep, BarrierArrivalsMatchAcrossThreads)
{
    const Workload w = makeWorkload(smallParams(GetParam()));
    const auto reference = barrierCounts(w.threads[0]);
    for (std::size_t t = 1; t < w.threads.size(); ++t)
        EXPECT_EQ(barrierCounts(w.threads[t]), reference)
            << "thread " << t;
}

TEST_P(KernelSweep, WorksWithOtherThreadCounts)
{
    for (unsigned threads : {1u, 2u, 4u}) {
        const Workload w =
            makeWorkload(smallParams(GetParam(), threads));
        EXPECT_EQ(w.threads.size(), threads);
        validateWorkload(w);
    }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelSweep,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

TEST(WorkloadRegistry, SplashNamesRegistered)
{
    const auto names = workloadNames();
    for (const auto &splash : splashNames()) {
        EXPECT_NE(std::find(names.begin(), names.end(), splash),
                  names.end())
            << splash;
    }
}

TEST(WorkloadRegistry, PaperInputScalesGenerate)
{
    // Table 1 of the paper: Barnes 1024 bodies, LU 256x256, Water 216
    // molecules (FFT 64K is exercised at 16K by default; the full 64K
    // works but is slow for a unit test).
    WorkloadParams p;
    p.numThreads = 8;

    p.kernel = "barnes";
    p.bodies = 1024;
    p.timesteps = 1;
    EXPECT_GT(makeWorkload(p).totalMicroOps(), 100000u);

    p = WorkloadParams{};
    p.numThreads = 8;
    p.kernel = "water";
    p.molecules = 216;
    EXPECT_GT(makeWorkload(p).totalMicroOps(), 100000u);
}

TEST(WorkloadTrace, BuilderCoalescesCompute)
{
    TraceProgram prog;
    TraceBuilder b(prog);
    b.compute(3);
    b.compute(4);
    b.load(0x1000, 2);
    b.compute(5);
    b.end();
    // compute(3)+compute(4) coalesce; the dependent compute after the
    // load stays separate; the trailing compute(5) merges into it.
    ASSERT_EQ(prog.instrs.size(), 4u);
    EXPECT_EQ(prog.instrs[0].op(), TraceOp::Compute);
    EXPECT_EQ(prog.instrs[0].count(), 7u);
    EXPECT_FALSE(prog.instrs[0].dependsOnLoad());
    EXPECT_EQ(prog.instrs[1].op(), TraceOp::Load);
    EXPECT_EQ(prog.instrs[1].addr(), 0x1000u);
    EXPECT_EQ(prog.instrs[2].op(), TraceOp::Compute);
    EXPECT_EQ(prog.instrs[2].count(), 7u);
    EXPECT_TRUE(prog.instrs[2].dependsOnLoad());
    EXPECT_EQ(prog.totalMicroOps(), 7u + 1 + 7);
}

TEST(WorkloadTrace, MicroOpAccounting)
{
    TraceProgram prog;
    TraceBuilder b(prog);
    b.lock(0);
    b.store(0x40);
    b.unlock(0);
    b.barrier(0);
    b.end();
    EXPECT_EQ(prog.totalMicroOps(), 4u);
}

static_assert(sizeof(TraceInstr) == 8, "a trace record is one word");

TEST(TraceStorage, RecordsNeverMove)
{
    TraceProgram prog;
    TraceBuilder b(prog);
    b.store(0x40);
    const TraceInstr *first = &prog.instrs[0];
    for (std::size_t i = 1; i < 3 * ChunkedTrace::chunkRecords; ++i)
        b.store(0x40 + 8 * i);
    EXPECT_EQ(&prog.instrs[0], first);
    EXPECT_EQ(first->op(), TraceOp::Store);
    EXPECT_EQ(first->addr(), 0x40u);
}

TEST(TraceStorage, IndexAndBackCrossChunkBoundary)
{
    constexpr std::size_t n = ChunkedTrace::chunkRecords;
    TraceProgram prog;
    TraceBuilder b(prog);
    for (std::size_t i = 0; i < n; ++i)
        b.store(8 * i);
    EXPECT_EQ(prog.instrs.back().addr(), 8 * (n - 1));
    b.load(0x1234);
    ASSERT_EQ(prog.instrs.size(), n + 1);
    EXPECT_EQ(prog.instrs[n - 1].addr(), 8 * (n - 1));
    EXPECT_EQ(prog.instrs[n].op(), TraceOp::Load);
    EXPECT_EQ(prog.instrs[n].addr(), 0x1234u);
    EXPECT_EQ(&prog.instrs.back(), &prog.instrs[n]);

    std::size_t seen = 0;
    for (const TraceInstr &instr : prog.instrs)
        EXPECT_EQ(&instr, &prog.instrs[seen++]);
    EXPECT_EQ(seen, n + 1);
}

TEST(TraceStorage, ComputeCoalescesIntoPreviousChunk)
{
    constexpr std::size_t n = ChunkedTrace::chunkRecords;
    TraceProgram prog;
    TraceBuilder b(prog);
    for (std::size_t i = 0; i + 2 < n; ++i)
        b.store(8 * i);
    b.load(0x80, 3); // the dependent Compute is the chunk's last record
    ASSERT_EQ(prog.instrs.size(), n);
    b.compute(4);
    ASSERT_EQ(prog.instrs.size(), n);
    EXPECT_EQ(prog.instrs[n - 1].op(), TraceOp::Compute);
    EXPECT_EQ(prog.instrs[n - 1].count(), 7u);
    EXPECT_TRUE(prog.instrs[n - 1].dependsOnLoad());
    b.end();
    EXPECT_EQ(prog.instrs.size(), n + 1);
    EXPECT_EQ(prog.instrs.back().op(), TraceOp::End);
}

TEST(TraceStorage, RunsEndAtTheirChunkAndNeverPastTheTrace)
{
    constexpr std::size_t n = ChunkedTrace::chunkRecords;
    TraceProgram prog;
    TraceBuilder b(prog);
    for (std::size_t i = 0; i < 2 * n; ++i)
        b.store(8 * i);
    ASSERT_EQ(prog.instrs.size(), 2 * n);
    EXPECT_EQ(prog.instrs.run(0).size(), n);
    EXPECT_EQ(prog.instrs.run(n - 1).size(), 1u);
    EXPECT_EQ(prog.instrs.run(n).size(), n);
    EXPECT_EQ(prog.instrs.run(n + 3).data(), &prog.instrs[n + 3]);
    EXPECT_EQ(prog.instrs.run(2 * n - 1).size(), 1u);
    // A trace of whole chunks: the index past its end is a chunk
    // that does not exist, and its run is empty.
    EXPECT_TRUE(prog.instrs.run(2 * n).empty());
    b.store(0x40);
    EXPECT_EQ(prog.instrs.run(2 * n).size(), 1u);
    EXPECT_EQ(prog.instrs.run(2 * n).data(), &prog.instrs[2 * n]);
    EXPECT_TRUE(prog.instrs.run(2 * n + 1).empty());
    EXPECT_TRUE(ChunkedTrace().run(0).empty());
}

TEST(TraceStorage, CopiesAreDeepAndMovesEmpty)
{
    TraceProgram prog;
    TraceBuilder b(prog);
    for (std::size_t i = 0; i < ChunkedTrace::chunkRecords + 5; ++i)
        b.store(8 * i);
    TraceProgram copy = prog;
    ASSERT_EQ(copy.instrs.size(), prog.instrs.size());
    EXPECT_NE(&copy.instrs[0], &prog.instrs[0]);
    for (std::size_t i = 0; i < prog.instrs.size(); ++i)
        ASSERT_EQ(copy.instrs[i].word(), prog.instrs[i].word());
    copy.instrs.back() = TraceInstr::make(TraceOp::End, 0);
    EXPECT_EQ(prog.instrs.back().op(), TraceOp::Store);

    const TraceProgram moved = std::move(copy);
    EXPECT_EQ(moved.instrs.size(), prog.instrs.size());
    EXPECT_TRUE(copy.instrs.empty());
}

namespace {

/** A one-lock, one-barrier workload of @p threads empty traces. */
Workload
syncWorkload(unsigned threads)
{
    Workload w;
    w.name = "sync";
    w.numLocks = 1;
    w.numBarriers = 1;
    w.threads.resize(threads);
    return w;
}

} // namespace

TEST(ValidateWorkload, RejectsUnknownOp)
{
    Workload w = syncWorkload(1);
    w.threads[0].instrs.push_back(
        TraceInstr::make(static_cast<TraceOp>(7), 4));
    TraceBuilder(w.threads[0]).end();
    EXPECT_DEATH(validateWorkload(w), "unknown trace op 7");
}

TEST(ValidateWorkload, RejectsUnlockOfUnheldLock)
{
    Workload w = syncWorkload(1);
    TraceBuilder b(w.threads[0]);
    b.lock(0);
    b.unlock(0);
    b.unlock(0);
    b.end();
    EXPECT_DEATH(validateWorkload(w), "releases unheld lock 0");
}

TEST(ValidateWorkload, RejectsLockIdOutOfRange)
{
    Workload w = syncWorkload(1);
    TraceBuilder b(w.threads[0]);
    b.lock(1);
    b.unlock(1);
    b.end();
    EXPECT_DEATH(validateWorkload(w), "lock id 1 out of range");
}

TEST(ValidateWorkload, RejectsDifferingBarrierCounts)
{
    Workload w = syncWorkload(2);
    TraceBuilder b0(w.threads[0]);
    b0.barrier(0);
    b0.barrier(0);
    b0.end();
    TraceBuilder b1(w.threads[1]);
    b1.barrier(0);
    b1.end();
    EXPECT_DEATH(validateWorkload(w),
                 "barrier arrival counts differ in thread 1");
}

TEST(WorkloadSharing, FalseShareTargetsSameLines)
{
    WorkloadParams p = smallParams("falseshare", 4);
    const Workload w = makeWorkload(p);
    // Every thread's store addresses must fall within the same four
    // cache lines.
    std::set<Addr> lines;
    for (const auto &t : w.threads)
        for (const auto &i : t.instrs)
            if (i.op() == TraceOp::Store)
                lines.insert(i.addr() & ~Addr{63});
    EXPECT_LE(lines.size(), 4u);
}

TEST(WorkloadSharing, StreamIsFullyPrivate)
{
    WorkloadParams p = smallParams("stream", 4);
    const Workload w = makeWorkload(p);
    std::vector<std::set<Addr>> lines(w.threads.size());
    for (std::size_t t = 0; t < w.threads.size(); ++t)
        for (const auto &i : w.threads[t].instrs)
            if (i.op() == TraceOp::Load || i.op() == TraceOp::Store)
                lines[t].insert(i.addr() & ~Addr{63});
    for (std::size_t a = 0; a < lines.size(); ++a) {
        for (std::size_t b = a + 1; b < lines.size(); ++b) {
            for (Addr line : lines[a])
                EXPECT_EQ(lines[b].count(line), 0u)
                    << "line shared between threads " << a << "," << b;
        }
    }
}

TEST(WorkloadSharing, FftTransposeReadsRemoteRows)
{
    WorkloadParams p = smallParams("fft", 4);
    const Workload w = makeWorkload(p);
    // During the transpose phases a thread must read lines that other
    // threads write during their row FFTs: count distinct load lines
    // per thread and verify substantial overlap across threads.
    std::set<Addr> t0_loads, t1_stores;
    for (const auto &i : w.threads[0].instrs)
        if (i.op() == TraceOp::Load)
            t0_loads.insert(i.addr() & ~Addr{63});
    for (const auto &i : w.threads[1].instrs)
        if (i.op() == TraceOp::Store)
            t1_stores.insert(i.addr() & ~Addr{63});
    std::size_t overlap = 0;
    for (Addr line : t0_loads)
        overlap += t1_stores.count(line);
    EXPECT_GT(overlap, 10u);
}

TEST(WorkloadSharing, WaterUsesPerMoleculeLocks)
{
    WorkloadParams p = smallParams("water", 4);
    p.molecules = 32;
    const Workload w = makeWorkload(p);
    EXPECT_EQ(w.numLocks, 33u); // one per molecule + global
    std::set<SyncId> used;
    for (const auto &t : w.threads)
        for (const auto &i : t.instrs)
            if (i.op() == TraceOp::Lock)
                used.insert(static_cast<SyncId>(i.sync()));
    EXPECT_GT(used.size(), 16u); // most molecule locks touched
}

TEST(WorkloadSharing, BarnesEmitsTreeLocksAndIrregularLoads)
{
    WorkloadParams p = smallParams("barnes", 4);
    const Workload w = makeWorkload(p);
    std::uint64_t locks = 0, loads = 0;
    for (const auto &t : w.threads) {
        for (const auto &i : t.instrs) {
            locks += i.op() == TraceOp::Lock ? 1 : 0;
            loads += i.op() == TraceOp::Load ? 1 : 0;
        }
    }
    EXPECT_GT(locks, 100u); // one per tree insertion at least
    EXPECT_GT(loads, 1000u);
}

TEST(WorkloadScaling, ComputeGrainScalesWork)
{
    WorkloadParams p1 = smallParams("lu", 4);
    WorkloadParams p4 = p1;
    p4.computeGrain = 4;
    const auto w1 = makeWorkload(p1);
    const auto w4 = makeWorkload(p4);
    EXPECT_GT(w4.totalMicroOps(), 2 * w1.totalMicroOps());
}

TEST(WorkloadScaling, UnknownKernelIsFatal)
{
    WorkloadParams p;
    p.kernel = "nonsense";
    EXPECT_DEATH(
        {
            setQuietLogging(true);
            makeWorkload(p);
        },
        "unknown workload kernel");
}

TEST(WorkloadScaling, FftRejectsNonPowerOfFour)
{
    WorkloadParams p = smallParams("fft");
    p.fftPoints = 1000;
    EXPECT_DEATH(makeWorkload(p), "power of 4");
}
