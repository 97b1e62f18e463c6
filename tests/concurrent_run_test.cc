/**
 * @file
 * Re-entrancy tests: two complete engines running concurrently in one
 * process must neither interfere (results bit-identical to solo runs)
 * nor share run-scoped state (fault plans, obs registries). This is
 * the multi-tenant foundation the job server builds on; CI runs it
 * under TSan.
 *
 * Scheme choice matters here: only cycle-by-cycle service is
 * bit-deterministic regardless of host scheduling (DESIGN.md §3). It
 * runs on the manager alone, with no worker threads, so the
 * bit-identity checks run CC engines side by side. Slack schemes run
 * on worker threads and keep committed-uop counts stable, but their
 * final cycle counts shift with host timing, so asserting cycle
 * equality on them is flaky by construction under load or TSan: the
 * quantum and fault-plan tests cover the threaded path with the
 * counts that are actually invariant.
 */

#include <thread>

#include <gtest/gtest.h>

#include "core/run.hh"
#include "workload/kernels.hh"

using namespace slacksim;

namespace {

SimConfig
makeConfig(const std::string &kernel, std::uint32_t cores,
           std::uint64_t seed, bool parallel_host)
{
    SimConfig config;
    config.workload.kernel = kernel;
    config.workload.numThreads = cores;
    config.workload.seed = seed;
    config.target.numCores = cores;
    // Lockstep sorted service: deterministic on any host, so
    // concurrent and solo runs are comparable bit-for-bit.
    config.engine.scheme = SchemeKind::CycleByCycle;
    config.engine.maxCommittedUops = 30000;
    config.engine.parallelHost = parallel_host;
    return config;
}

void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.committedUops, b.committedUops);
    EXPECT_EQ(a.execCycles, b.execCycles);
    EXPECT_EQ(a.globalCycles, b.globalCycles);
    EXPECT_EQ(a.violations.total(), b.violations.total());
}

} // namespace

TEST(ConcurrentRunTest, TwoParallelEnginesMatchSoloRuns)
{
    const SimConfig cfg_a = makeConfig("fft", 4, 42, true);
    const SimConfig cfg_b = makeConfig("radix", 4, 7, true);

    const RunResult solo_a = runSimulation(cfg_a);
    const RunResult solo_b = runSimulation(cfg_b);

    RunResult conc_a, conc_b;
    std::thread ta([&] { conc_a = runSimulation(cfg_a); });
    std::thread tb([&] { conc_b = runSimulation(cfg_b); });
    ta.join();
    tb.join();

    expectSameResult(conc_a, solo_a);
    expectSameResult(conc_b, solo_b);
}

TEST(ConcurrentRunTest, MixedHostEnginesCoexist)
{
    // One parallel-engine run and one serial-engine run sharing the
    // process.
    const SimConfig cfg_a = makeConfig("pingpong", 4, 1, true);
    const SimConfig cfg_b = makeConfig("stream", 2, 2, false);

    const RunResult solo_a = runSimulation(cfg_a);
    const RunResult solo_b = runSimulation(cfg_b);

    RunResult conc_a, conc_b;
    std::thread ta([&] { conc_a = runSimulation(cfg_a); });
    std::thread tb([&] { conc_b = runSimulation(cfg_b); });
    ta.join();
    tb.join();

    expectSameResult(conc_a, solo_a);
    expectSameResult(conc_b, solo_b);
}

TEST(ConcurrentRunTest, QuantumRunsKeepStableCountsConcurrently)
{
    // The slack path under concurrency: quantum runs pace on host
    // timing, so final cycle counts legitimately wander a little —
    // but the committed-uop count is termination-defined and must
    // not move when another engine shares the process.
    SimConfig cfg = makeConfig("pingpong", 4, 1, true);
    cfg.engine.scheme = SchemeKind::Quantum;
    cfg.engine.quantum = 16;
    cfg.engine.maxCommittedUops = 120000;
    const SimConfig other = makeConfig("stream", 2, 2, false);

    const RunResult solo = runSimulation(cfg);

    RunResult conc_a, conc_b;
    std::thread ta([&] { conc_a = runSimulation(cfg); });
    std::thread tb([&] { conc_b = runSimulation(other); });
    ta.join();
    tb.join();

    EXPECT_EQ(conc_a.committedUops, solo.committedUops);
}

TEST(ConcurrentRunTest, FaultPlansAreRunLocal)
{
    // Run A injects a worker stall; run B must see no plan at all.
    // Both run a slack scheme on worker threads, so the stall fires
    // on a worker that must carry A's plan while B's workers run
    // alongside.
    auto threaded = [](const std::string &kernel) {
        SimConfig config = makeConfig(kernel, 4, 42, true);
        config.engine.scheme = SchemeKind::Quantum;
        config.engine.quantum = 16;
        config.engine.hostThreads = 3;
        config.engine.maxCommittedUops = 0;
        return config;
    };
    SimConfig cfg_a = threaded("fft");
    cfg_a.engine.faultSpecs.push_back("worker-stall@cycle:500:2");
    const SimConfig cfg_b = threaded("lu");

    RunResult res_a, res_b;
    std::thread ta([&] { res_a = runSimulation(cfg_a); });
    std::thread tb([&] { res_b = runSimulation(cfg_b); });
    ta.join();
    tb.join();

    EXPECT_EQ(res_a.host.hostThreadsUsed, 3u);
    EXPECT_EQ(res_a.faultSpecCount, 1u);
    EXPECT_EQ(res_a.faultInjections.size(), 1u);
    EXPECT_EQ(res_b.faultSpecCount, 0u);
    EXPECT_TRUE(res_b.faultInjections.empty());

    // The stall perturbs host timing only: each run still commits
    // its whole trace.
    EXPECT_EQ(res_a.committedUops,
              makeWorkload(cfg_a.workload).totalMicroOps());
    EXPECT_EQ(res_b.committedUops,
              makeWorkload(cfg_b.workload).totalMicroOps());
}

TEST(ConcurrentRunTest, ManySmallRunsBackToBackStayIndependent)
{
    // Re-entry stress: the same config run repeatedly (and two at a
    // time) keeps producing the same answer — no state leaks between
    // consecutive runs in one process.
    const SimConfig cfg = makeConfig("falseshare", 2, 9, true);
    const RunResult ref = runSimulation(cfg);
    for (int i = 0; i < 3; ++i) {
        RunResult r1, r2;
        std::thread t1([&] { r1 = runSimulation(cfg); });
        std::thread t2([&] { r2 = runSimulation(cfg); });
        t1.join();
        t2.join();
        expectSameResult(r1, ref);
        expectSameResult(r2, ref);
    }
}
