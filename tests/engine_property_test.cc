/**
 * @file
 * Cross-cutting engine properties: host-knob invariance of the gold
 * standard (burst size, queue capacity must not change simulated
 * results), checkpoint edge cases, seed sensitivity of Lax-P2P, and
 * combined stop conditions.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/pacer.hh"
#include "core/run.hh"
#include "util/logging.hh"
#include "workload/kernels.hh"

using namespace slacksim;

namespace {

SimConfig
smallConfig(const std::string &kernel, SchemeKind scheme,
            bool parallel_host)
{
    SimConfig config;
    config.workload.kernel = kernel;
    config.workload.numThreads = config.target.numCores;
    config.workload.iters = 400;
    config.workload.fftPoints = 1024;
    config.workload.footprintBytes = 64 * 1024;
    config.engine.scheme = scheme;
    config.engine.parallelHost = parallel_host;
    return config;
}

void
expectSameSimulation(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.execCycles, b.execCycles);
    EXPECT_EQ(a.committedUops, b.committedUops);
    EXPECT_EQ(a.violations.busViolations, b.violations.busViolations);
    EXPECT_EQ(a.violations.mapViolations, b.violations.mapViolations);
    EXPECT_EQ(a.coreTotal.l1dHits, b.coreTotal.l1dHits);
    EXPECT_EQ(a.coreTotal.l1dMisses, b.coreTotal.l1dMisses);
    EXPECT_EQ(a.uncore.busRequests, b.uncore.busRequests);
    EXPECT_EQ(a.uncore.l2Misses, b.uncore.l2Misses);
}

} // namespace

/** CC results must not depend on host-side batching knobs. */
class HostKnobInvariance
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, bool>>
{
};

TEST_P(HostKnobInvariance, CycleByCycleIgnoresBurstSize)
{
    const auto [burst, parallel] = GetParam();
    auto reference =
        smallConfig("falseshare", SchemeKind::CycleByCycle, false);
    reference.engine.burstCycles = 64;
    auto variant =
        smallConfig("falseshare", SchemeKind::CycleByCycle, parallel);
    variant.engine.burstCycles = burst;
    expectSameSimulation(runSimulation(reference),
                         runSimulation(variant));
}

INSTANTIATE_TEST_SUITE_P(
    Bursts, HostKnobInvariance,
    ::testing::Combine(::testing::Values<std::uint32_t>(1, 7, 64, 1024),
                       ::testing::Bool()));

TEST(HostKnobs, CycleByCycleIgnoresQueueCapacity)
{
    auto small = smallConfig("uniform", SchemeKind::CycleByCycle, false);
    small.engine.queueCapacity = 64;
    auto large = small;
    large.engine.queueCapacity = 8192;
    expectSameSimulation(runSimulation(small), runSimulation(large));
}

TEST(HostKnobs, SerialCcMatchesParallelForSplashWindow)
{
    for (const auto &kernel : splashNames()) {
        auto serial = smallConfig(kernel, SchemeKind::CycleByCycle,
                                  false);
        serial.workload.bodies = 128;
        serial.workload.matrixN = 32;
        serial.workload.blockB = 8;
        serial.workload.molecules = 16;
        serial.workload.timesteps = 1;
        serial.engine.maxCommittedUops = 15000;
        auto parallel = serial;
        parallel.engine.parallelHost = true;
        SCOPED_TRACE(kernel);
        const auto a = runSimulation(serial);
        const auto b = runSimulation(parallel);
        // Whatever the auto topology, CC runs on the manager alone
        // and stops on the serial engine's cycle, every statistic
        // equal.
        EXPECT_EQ(a.violations.total(), 0u);
        EXPECT_EQ(b.violations.total(), 0u);
        EXPECT_NEAR(a.cpi(), b.cpi(), a.cpi() * 0.05);
        EXPECT_EQ(a.execCycles, b.execCycles);
        EXPECT_EQ(a.globalCycles, b.globalCycles);
        EXPECT_EQ(a.committedUops, b.committedUops);
        EXPECT_TRUE(a.perCore == b.perCore);
        EXPECT_TRUE(a.uncore == b.uncore);
        EXPECT_TRUE(a.busQueueHistogram == b.busQueueHistogram);
    }
}

TEST(HostKnobs, ThreadedCcStopsOnTheSerialCycle)
{
    // The serial engine checks its warmup and stop thresholds after
    // each round, when every core has run the same cycle. A CC run
    // asked for worker threads launches none: the manager drives
    // every core and resets and stops on those very cycles.
    for (const std::uint64_t warmup : {0u, 3000u}) {
        auto serial = smallConfig("fft", SchemeKind::CycleByCycle, false);
        serial.engine.maxCommittedUops = 7001;
        serial.engine.warmupUops = warmup;
        const auto a = runSimulation(serial);
        for (const std::uint32_t threads : {2u, 3u, 5u}) {
            auto threaded = serial;
            threaded.engine.parallelHost = true;
            threaded.engine.hostThreads = threads;
            SCOPED_TRACE("warmup " + std::to_string(warmup) +
                         " threads " + std::to_string(threads));
            const auto b = runSimulation(threaded);
            EXPECT_EQ(b.host.hostThreadsUsed, 1u);
            EXPECT_EQ(a.execCycles, b.execCycles);
            EXPECT_EQ(a.globalCycles, b.globalCycles);
            EXPECT_EQ(a.committedUops, b.committedUops);
            EXPECT_TRUE(a.perCore == b.perCore);
            EXPECT_TRUE(a.uncore == b.uncore);
            EXPECT_TRUE(a.violations == b.violations);
        }
    }
}

TEST(HostKnobs, SerialCcMatchesInlineParallelExactlyForSplashWindow)
{
    // The inline parallel engine is deterministic: with the same uop
    // budget it must stop on the serial engine's cycle with every
    // simulated statistic equal.
    for (const auto &kernel : splashNames()) {
        auto serial = smallConfig(kernel, SchemeKind::CycleByCycle,
                                  false);
        serial.workload.bodies = 128;
        serial.workload.matrixN = 32;
        serial.workload.blockB = 8;
        serial.workload.molecules = 16;
        serial.workload.timesteps = 1;
        serial.engine.maxCommittedUops = 15000;
        auto parallel = serial;
        parallel.engine.parallelHost = true;
        parallel.engine.hostThreads = 1;
        SCOPED_TRACE(kernel);
        const auto a = runSimulation(serial);
        const auto b = runSimulation(parallel);
        EXPECT_EQ(a.execCycles, b.execCycles);
        EXPECT_EQ(a.globalCycles, b.globalCycles);
        EXPECT_EQ(a.committedUops, b.committedUops);
        EXPECT_TRUE(a.perCore == b.perCore);
        EXPECT_TRUE(a.uncore == b.uncore);
        EXPECT_TRUE(a.violations == b.violations);
        EXPECT_TRUE(a.busQueueHistogram == b.busQueueHistogram);
    }
}

TEST(LaxP2PSeeds, SameSeedSameSerialResult)
{
    auto config = smallConfig("uniform", SchemeKind::LaxP2P, false);
    config.engine.slackBound = 8;
    config.engine.p2pSeed = 777;
    expectSameSimulation(runSimulation(config), runSimulation(config));
}

TEST(LaxP2PSeeds, DifferentSeedsGiveDifferentPairings)
{
    // The serial engine's round-robin keeps cores so evenly paced
    // that the pairing choice rarely changes results there, so check
    // the pairing sequence itself at the pacer level.
    HostStats host_a, host_b;
    EngineConfig e;
    e.scheme = SchemeKind::LaxP2P;
    e.slackBound = 4;
    e.p2pSeed = 1;
    Pacer a(e, 8, &host_a);
    e.p2pSeed = 2;
    Pacer b(e, 8, &host_b);
    std::vector<Tick> locals = {10, 20, 30, 40, 50, 60, 70, 80};
    bool differs = false;
    for (CoreId c = 0; c < 8; ++c) {
        differs |= a.maxLocalForCore(c, 10, locals) !=
                   b.maxLocalForCore(c, 10, locals);
    }
    EXPECT_TRUE(differs);
}

TEST(CheckpointEdges, MinimumIntervalWorks)
{
    auto config = smallConfig("pingpong", SchemeKind::CycleByCycle,
                              false);
    config.workload.iters = 100;
    config.engine.checkpoint.mode = CheckpointMode::Measure;
    config.engine.checkpoint.interval = 100; // the configured minimum
    const auto r = runSimulation(config);
    EXPECT_GT(r.host.checkpointsTaken, 10u);
    EXPECT_EQ(r.host.rollbacks, 0u);
}

TEST(CheckpointEdges, BudgetStopsDuringCheckpointedRun)
{
    auto config = smallConfig("uniform", SchemeKind::Adaptive, false);
    config.workload.iters = 5000;
    config.engine.checkpoint.mode = CheckpointMode::Measure;
    config.engine.checkpoint.interval = 1000;
    config.engine.maxCommittedUops = 15000;
    const auto r = runSimulation(config);
    EXPECT_GE(r.committedUops, 15000u);
    EXPECT_GT(r.host.checkpointsTaken, 0u);
}

TEST(CheckpointEdges, SpeculativeWithWarmup)
{
    auto config = smallConfig("falseshare", SchemeKind::Adaptive, false);
    config.workload.iters = 1500;
    config.engine.warmupUops = 5000;
    config.engine.checkpoint.mode = CheckpointMode::Speculative;
    config.engine.checkpoint.interval = 2000;
    config.engine.adaptive.initialBound = 32;
    config.engine.adaptive.targetViolationRate = 0.05;
    const Workload w = makeWorkload(config.workload);
    const auto r = runSimulation(config);
    // Completes; post-warmup committed count is below the trace total.
    EXPECT_LT(r.committedUops, w.totalMicroOps());
    EXPECT_GT(r.committedUops, 0u);
}

TEST(CheckpointEdges, EveryIntervalRolledBackMatchesSerialCc)
{
    // A spurious rollback after every checkpoint makes the whole run
    // replay, and replay is sorted service: on every topology, with
    // or without a warmup that crosses its threshold mid-replay, the
    // result must be serial CC's, statistic for statistic. Violations
    // alone would not do: a threaded interval sometimes keeps its
    // slack result.
    setQuietLogging(true); // one fault record per checkpoint
    for (const std::string kernel : {"barnes", "fft", "pingpong"}) {
        SimConfig cc = smallConfig(kernel, SchemeKind::CycleByCycle,
                                   false);
        // The golden tests' sizes.
        cc.workload.iters = 300;
        cc.workload.bodies = 128;
        cc.workload.timesteps = 1;
        for (const std::uint64_t warmup : {0u, 5003u}) {
            cc.engine.warmupUops = warmup;
            const RunResult reference = runSimulation(cc);
            SimConfig spec = cc;
            spec.engine.scheme = SchemeKind::Adaptive;
            spec.engine.parallelHost = true;
            spec.engine.checkpoint.mode = CheckpointMode::Speculative;
            spec.engine.checkpoint.interval = 1000;
            // Every boundary the run reaches takes one checkpoint,
            // replays included, so ordinal N is the Nth boundary.
            for (Tick n = 1; n <= reference.execCycles / 1000 + 1; ++n) {
                spec.engine.faultSpecs.push_back(
                    "spurious-rollback@ckpt:" + std::to_string(n));
            }
            for (const std::uint32_t threads : {1u, 2u, 3u, 4u}) {
                spec.engine.hostThreads = threads;
                SCOPED_TRACE(kernel + " warmup " +
                             std::to_string(warmup) + " threads " +
                             std::to_string(threads));
                const RunResult r = runSimulation(spec);
                EXPECT_EQ(r.host.rollbacks, r.host.checkpointsTaken);
                EXPECT_EQ(r.execCycles, reference.execCycles);
                EXPECT_EQ(r.committedUops, reference.committedUops);
                EXPECT_TRUE(r.perCore == reference.perCore);
                EXPECT_TRUE(r.uncore == reference.uncore);
                EXPECT_TRUE(r.busQueueHistogram ==
                            reference.busQueueHistogram);
            }
        }
    }
}

TEST(SchemeMatrix, EverySchemeOnEveryHostSmokes)
{
    for (const SchemeKind scheme :
         {SchemeKind::CycleByCycle, SchemeKind::Quantum,
          SchemeKind::Bounded, SchemeKind::Unbounded,
          SchemeKind::Adaptive, SchemeKind::LaxP2P}) {
        for (const bool parallel : {false, true}) {
            auto config = smallConfig("uniform", scheme, parallel);
            config.workload.iters = 300;
            const Workload w = makeWorkload(config.workload);
            SCOPED_TRACE(std::string(schemeName(scheme)) +
                         (parallel ? "/par" : "/ser"));
            const auto r = runSimulation(config);
            EXPECT_EQ(r.committedUops, w.totalMicroOps());
        }
    }
}

TEST(Protocols, MsiGeneratesMoreUpgradeTraffic)
{
    // LU reads block rows before writing them back: with MESI a sole
    // reader gets Exclusive and stores silently; MSI pays an upgrade
    // transaction for every such line.
    auto mesi = smallConfig("lu", SchemeKind::CycleByCycle, false);
    mesi.workload.matrixN = 32;
    mesi.workload.blockB = 8;
    auto msi = mesi;
    msi.target.protocol = CoherenceProtocol::MSI;
    const auto r_mesi = runSimulation(mesi);
    const auto r_msi = runSimulation(msi);
    EXPECT_GT(r_msi.coreTotal.l1dUpgrades,
              2 * r_mesi.coreTotal.l1dUpgrades);
    EXPECT_GT(r_msi.uncore.busRequests, r_mesi.uncore.busRequests);
}

TEST(EngineScale, ThirtyTwoCoresSmoke)
{
    // The paper targets CMPs with 10s-100s of cores; make sure the
    // engine scales structurally (masks, barriers, pacing) well past
    // the 8-core evaluation point.
    SimConfig config;
    config.target.numCores = 32;
    config.workload.kernel = "uniform";
    config.workload.numThreads = 32;
    config.workload.iters = 120;
    config.engine.scheme = SchemeKind::Bounded;
    config.engine.slackBound = 16;
    const Workload w = makeWorkload(config.workload);
    const auto r = runSimulation(config);
    EXPECT_EQ(r.committedUops, w.totalMicroOps());
    EXPECT_EQ(r.perCore.size(), 32u);
}

TEST(RunResultReport, PerCoreTablePrints)
{
    auto config = smallConfig("pingpong", SchemeKind::CycleByCycle,
                              false);
    config.workload.iters = 50;
    const auto r = runSimulation(config);
    std::ostringstream os;
    r.printPerCore(os);
    EXPECT_NE(os.str().find("per-core breakdown"), std::string::npos);
    // Eight data rows, one per core.
    std::size_t rows = 0;
    for (CoreId c = 0; c < 8; ++c)
        rows += os.str().find("\n" + std::to_string(c) + " ") !=
                        std::string::npos
                    ? 1
                    : 0;
    EXPECT_GE(rows, 7u);
}

TEST(HostThreads, CcInvariantAcrossWorkerTopologies)
{
    // Pinning the engine to 1, 2, 3 or 5 (one worker per core) host
    // threads must not change cycle-by-cycle results; sorted service
    // is the manager's, so none of them launches a worker.
    const auto reference =
        runSimulation(smallConfig("falseshare",
                                  SchemeKind::CycleByCycle, true));
    for (const std::uint32_t threads : {1u, 2u, 3u, 5u}) {
        auto pinned = smallConfig("falseshare",
                                  SchemeKind::CycleByCycle, true);
        pinned.engine.hostThreads = threads;
        SCOPED_TRACE(threads);
        const RunResult r = runSimulation(pinned);
        EXPECT_EQ(r.host.hostThreadsUsed, 1u);
        expectSameSimulation(reference, r);
    }
}

TEST(HostThreads, SlackSchemesCompleteOnEveryTopology)
{
    for (const SchemeKind scheme :
         {SchemeKind::Quantum, SchemeKind::Bounded,
          SchemeKind::Unbounded, SchemeKind::Adaptive,
          SchemeKind::LaxP2P}) {
        for (const std::uint32_t threads : {1u, 2u, 4u}) {
            auto config = smallConfig("uniform", scheme, true);
            config.engine.hostThreads = threads;
            config.engine.slackBound = 16;
            const Workload w = makeWorkload(config.workload);
            SCOPED_TRACE(std::string(schemeName(scheme)) + " ht=" +
                         std::to_string(threads));
            const auto r = runSimulation(config);
            EXPECT_EQ(r.committedUops, w.totalMicroOps());
        }
    }
}

TEST(InlineRounds, NeverFiringFaultPlanChangesNothing)
{
    // A bound fault plan is consulted on every burst visit (worker
    // stalls fire on one), including the O(1) visit to a core whose
    // wake lies beyond its limit. A plan whose one fault is due long
    // after the run ends must leave every simulated statistic and
    // every work count as a run without a plan.
    const std::string never = "worker-stall@cycle:1000000000000:1:0";
    for (const std::string kernel : {"barnes", "fft"}) {
        SimConfig cc = smallConfig(kernel, SchemeKind::CycleByCycle,
                                   true);
        // The golden tests' sizes.
        cc.workload.iters = 300;
        cc.workload.bodies = 128;
        cc.workload.timesteps = 1;
        cc.engine.hostThreads = 1;
        SimConfig spec = cc;
        spec.engine.scheme = SchemeKind::Adaptive;
        spec.engine.checkpoint.mode = CheckpointMode::Speculative;
        spec.engine.checkpoint.interval = 1000;
        spec.engine.checkpoint.rollbackOnBus = true;
        spec.engine.checkpoint.rollbackOnMap = true;
        SimConfig s1 = cc;
        s1.engine.scheme = SchemeKind::Bounded;
        s1.engine.slackBound = 1;
        for (const auto &[name, bare] :
             {std::pair<std::string, SimConfig>{"cc", cc},
              {"speculative", spec},
              {"S1", s1}}) {
            SCOPED_TRACE(kernel + " " + name);
            SimConfig planned = bare;
            planned.engine.faultSpecs = {never};
            const RunResult a = runSimulation(bare);
            const RunResult b = runSimulation(planned);
            EXPECT_TRUE(b.faultInjections.empty());
            if (name == "speculative") {
                EXPECT_GT(a.host.rollbacks, 0u);
            }
            EXPECT_EQ(a.execCycles, b.execCycles);
            EXPECT_EQ(a.globalCycles, b.globalCycles);
            EXPECT_EQ(a.committedUops, b.committedUops);
            EXPECT_TRUE(a.perCore == b.perCore);
            EXPECT_TRUE(a.uncore == b.uncore);
            EXPECT_TRUE(a.violations == b.violations);
            EXPECT_TRUE(a.busQueueHistogram == b.busQueueHistogram);
            EXPECT_EQ(a.host.rollbacks, b.host.rollbacks);
            EXPECT_EQ(a.host.managerRounds, b.host.managerRounds);
            EXPECT_EQ(a.host.coreEvaluations, b.host.coreEvaluations);
            EXPECT_EQ(a.host.inertReentries, b.host.inertReentries);
        }
    }
}
