/**
 * @file
 * End-to-end engine tests: determinism of the cycle-by-cycle gold
 * standard, serial/parallel equivalence, slack-bound enforcement,
 * violation behavior across schemes, and run-control (uop budgets,
 * trace completion). Parameterized sweeps serve as property tests.
 */

#include <gtest/gtest.h>

#include "core/run.hh"
#include "workload/kernels.hh"

using namespace slacksim;

namespace {

/** A small, fully deterministic base configuration. */
SimConfig
baseConfig(const std::string &kernel, SchemeKind scheme,
           bool parallel_host)
{
    SimConfig config;
    config.workload.kernel = kernel;
    config.workload.numThreads = config.target.numCores;
    config.workload.iters = 300;
    config.workload.bodies = 128;
    config.workload.timesteps = 1;
    config.workload.fftPoints = 1024;
    config.workload.matrixN = 32;
    config.workload.blockB = 8;
    config.workload.molecules = 16;
    config.workload.footprintBytes = 64 * 1024;
    config.engine.scheme = scheme;
    config.engine.parallelHost = parallel_host;
    return config;
}

/** Equality of everything that must be bit-identical between runs. */
void
expectSameSimulation(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.execCycles, b.execCycles);
    EXPECT_EQ(a.globalCycles, b.globalCycles);
    EXPECT_EQ(a.committedUops, b.committedUops);
    EXPECT_EQ(a.violations.busViolations, b.violations.busViolations);
    EXPECT_EQ(a.violations.mapViolations, b.violations.mapViolations);
    EXPECT_EQ(a.coreTotal.l1dHits, b.coreTotal.l1dHits);
    EXPECT_EQ(a.coreTotal.l1dMisses, b.coreTotal.l1dMisses);
    EXPECT_EQ(a.coreTotal.l1iMisses, b.coreTotal.l1iMisses);
    EXPECT_EQ(a.uncore.busRequests, b.uncore.busRequests);
    EXPECT_EQ(a.uncore.l2Hits, b.uncore.l2Hits);
    EXPECT_EQ(a.uncore.l2Misses, b.uncore.l2Misses);
    EXPECT_EQ(a.uncore.lockAcquires, b.uncore.lockAcquires);
    EXPECT_EQ(a.uncore.barrierEpisodes, b.uncore.barrierEpisodes);
    ASSERT_EQ(a.perCore.size(), b.perCore.size());
    for (std::size_t c = 0; c < a.perCore.size(); ++c) {
        EXPECT_EQ(a.perCore[c].committedInstrs,
                  b.perCore[c].committedInstrs)
            << "core " << c;
    }
}

} // namespace

TEST(EngineCC, SerialIsDeterministic)
{
    const auto config =
        baseConfig("falseshare", SchemeKind::CycleByCycle, false);
    expectSameSimulation(runSimulation(config), runSimulation(config));
}

TEST(EngineCC, ParallelMatchesSerialGoldStandard)
{
    for (const std::string kernel :
         {"falseshare", "pingpong", "uniform"}) {
        const auto serial =
            runSimulation(baseConfig(kernel, SchemeKind::CycleByCycle,
                                     false));
        const auto parallel =
            runSimulation(baseConfig(kernel, SchemeKind::CycleByCycle,
                                     true));
        SCOPED_TRACE(kernel);
        expectSameSimulation(serial, parallel);
    }
}

TEST(EngineCC, NoViolationsEver)
{
    for (const std::string kernel : {"falseshare", "uniform", "fft"}) {
        auto config = baseConfig(kernel, SchemeKind::CycleByCycle, true);
        config.engine.maxCommittedUops = 50000;
        const auto r = runSimulation(config);
        SCOPED_TRACE(kernel);
        EXPECT_EQ(r.violations.total(), 0u);
        // Mid-round, a core that finished cycle T coexists with one
        // that hasn't: CC clocks may instantaneously differ by 1.
        EXPECT_LE(r.host.maxObservedSlack, 1u);
    }
}

TEST(EngineCompletion, AllUopsCommitWithoutBudget)
{
    for (const bool parallel : {false, true}) {
        auto config =
            baseConfig("pingpong", SchemeKind::CycleByCycle, parallel);
        const Workload w = makeWorkload(config.workload);
        const auto r = runSimulation(config);
        SCOPED_TRACE(parallel ? "parallel" : "serial");
        EXPECT_EQ(r.committedUops, w.totalMicroOps());
        // pingpong: T threads x iters lock/unlock pairs + barriers.
        EXPECT_EQ(r.uncore.lockAcquires, 8u * 300u);
        EXPECT_EQ(r.uncore.barrierEpisodes, 2u);
    }
}

TEST(EngineBudget, StopsNearUopLimit)
{
    auto config = baseConfig("uniform", SchemeKind::Bounded, false);
    config.workload.iters = 20000; // trace far larger than the budget
    config.engine.maxCommittedUops = 20000;
    const auto r = runSimulation(config);
    EXPECT_GE(r.committedUops, 20000u);
    // Allowed overshoot: one burst per core.
    EXPECT_LE(r.committedUops, 20000u + 8u * 64u * 8u);
}

class SlackBoundSweep
    : public ::testing::TestWithParam<std::tuple<Tick, bool>>
{
};

TEST_P(SlackBoundSweep, BoundIsRespected)
{
    const auto [bound, parallel] = GetParam();
    auto config = baseConfig("falseshare", SchemeKind::Bounded, parallel);
    config.engine.slackBound = bound;
    const auto r = runSimulation(config);
    // Serial observation is exact; the parallel manager's sweep over
    // the local clocks is racy by a few cycles, so allow skew there.
    const Tick margin = parallel ? 4 : 1;
    EXPECT_LE(r.host.maxObservedSlack, bound + margin)
        << "slack bound " << bound << " exceeded";
    EXPECT_GT(r.committedUops, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Bounds, SlackBoundSweep,
    ::testing::Combine(::testing::Values<Tick>(1, 2, 5, 10, 50, 200),
                       ::testing::Bool()));

TEST(EngineSlack, SerialBoundedIsDeterministic)
{
    auto config = baseConfig("falseshare", SchemeKind::Bounded, false);
    config.engine.slackBound = 20;
    expectSameSimulation(runSimulation(config), runSimulation(config));
}

TEST(EngineSlack, ViolationsGrowWithBound)
{
    auto small = baseConfig("falseshare", SchemeKind::Bounded, false);
    small.engine.slackBound = 1;
    auto large = small;
    large.engine.slackBound = 100;
    const auto r_small = runSimulation(small);
    const auto r_large = runSimulation(large);
    EXPECT_GT(r_large.violations.total(), r_small.violations.total());
}

TEST(EngineSlack, UnboundedCompletesAndDrifts)
{
    auto config = baseConfig("uniform", SchemeKind::Unbounded, true);
    const Workload w = makeWorkload(config.workload);
    const auto r = runSimulation(config);
    EXPECT_EQ(r.committedUops, w.totalMicroOps());
}

TEST(EngineSlack, QuantumViolationsGrowWithQuantum)
{
    auto q1 = baseConfig("falseshare", SchemeKind::Quantum, false);
    q1.engine.quantum = 1;
    auto q64 = q1;
    q64.engine.quantum = 64;
    const auto r1 = runSimulation(q1);
    const auto r64 = runSimulation(q64);
    // Quantum services in arrival order, so a wide quantum violates.
    EXPECT_GT(r64.violations.total(), 0u);
    EXPECT_LE(r1.violations.total(), r64.violations.total());
    EXPECT_LE(r1.host.maxObservedSlack, 1u);
    EXPECT_LE(r64.host.maxObservedSlack, 64u);
}

TEST(EngineAdaptive, ThrottlesTowardTarget)
{
    auto config = baseConfig("falseshare", SchemeKind::Adaptive, false);
    config.workload.iters = 3000;
    config.engine.adaptive.targetViolationRate = 0.002;
    config.engine.adaptive.violationBand = 0.05;
    config.engine.adaptive.epochCycles = 500;
    config.engine.adaptive.initialBound = 256;
    const auto r = runSimulation(config);
    EXPECT_GT(r.host.slackAdjustments, 0u);
    // Started far too optimistic: the controller must have pulled the
    // bound down hard.
    EXPECT_LT(r.finalSlackBound, 256u);
    // The cumulative rate should land near the target (generous
    // tolerance: early transient cycles are included).
    EXPECT_LT(r.violationRate(), 0.02);
}

TEST(EngineAdaptive, GrowsBoundWhenQuiet)
{
    // A workload with almost no sharing: violations are rare, so the
    // bound should ramp up toward the max.
    auto config = baseConfig("stream", SchemeKind::Adaptive, false);
    config.workload.iters = 2;
    config.workload.footprintBytes = 32 * 1024;
    config.engine.adaptive.targetViolationRate = 0.05;
    config.engine.adaptive.epochCycles = 200;
    config.engine.adaptive.initialBound = 2;
    config.engine.adaptive.maxBound = 512;
    const auto r = runSimulation(config);
    EXPECT_GT(r.finalSlackBound, 2u);
}

TEST(EngineSchemes, AllSchemesCompleteOnAllSplashKernels)
{
    for (const auto &kernel : splashNames()) {
        const auto base = baseConfig(kernel, SchemeKind::CycleByCycle,
                                     true);
        const std::uint64_t trace_uops =
            makeWorkload(base.workload).totalMicroOps();
        for (const SchemeKind scheme :
             {SchemeKind::CycleByCycle, SchemeKind::Quantum,
              SchemeKind::Bounded, SchemeKind::Unbounded,
              SchemeKind::Adaptive}) {
            auto config = baseConfig(kernel, scheme, true);
            config.engine.maxCommittedUops = 20000;
            const auto r = runSimulation(config);
            SCOPED_TRACE(kernel + std::string("/") +
                         schemeName(scheme));
            EXPECT_GE(r.committedUops,
                      std::min<std::uint64_t>(20000, trace_uops));
            EXPECT_GT(r.execCycles, 0u);
        }
    }
}

TEST(EngineSlack, SlackExecTimeErrorIsBounded)
{
    // Slack distorts simulated time; the error against the gold
    // standard must stay moderate for small bounds (the paper's
    // single-digit-percent observation).
    auto cc = baseConfig("uniform", SchemeKind::CycleByCycle, false);
    cc.engine.maxCommittedUops = 40000;
    auto s4 = cc;
    s4.engine.scheme = SchemeKind::Bounded;
    s4.engine.slackBound = 4;
    const auto r_cc = runSimulation(cc);
    const auto r_s4 = runSimulation(s4);
    const double err =
        std::abs(static_cast<double>(r_s4.execCycles) -
                 static_cast<double>(r_cc.execCycles)) /
        static_cast<double>(r_cc.execCycles);
    EXPECT_LT(err, 0.15);
}

TEST(EngineConfigValidation, RejectsBadConfigs)
{
    SimConfig config;
    config.workload.numThreads = 4; // != numCores (8)
    EXPECT_DEATH(runSimulation(config), "must match");

    SimConfig bad_bound;
    bad_bound.workload.numThreads = bad_bound.target.numCores;
    bad_bound.engine.scheme = SchemeKind::Bounded;
    bad_bound.engine.slackBound = 0;
    EXPECT_DEATH(runSimulation(bad_bound), "slackBound");
}

TEST(EngineCoreCounts, WorksWithOneAndSixteenCores)
{
    for (const std::uint32_t cores : {1u, 2u, 16u}) {
        SimConfig config;
        config.target.numCores = cores;
        config.workload.kernel = "uniform";
        config.workload.numThreads = cores;
        config.workload.iters = 200;
        config.engine.scheme = SchemeKind::Bounded;
        config.engine.slackBound = 8;
        const auto r = runSimulation(config);
        SCOPED_TRACE(cores);
        EXPECT_EQ(r.perCore.size(), cores);
        EXPECT_GT(r.committedUops, 0u);
    }
}

TEST(EngineLaxP2P, CompletesOnBothHosts)
{
    for (const bool parallel : {false, true}) {
        auto config =
            baseConfig("falseshare", SchemeKind::LaxP2P, parallel);
        config.engine.slackBound = 10;
        config.engine.p2pShufflePeriod = 200;
        const Workload w = makeWorkload(config.workload);
        const auto r = runSimulation(config);
        SCOPED_TRACE(parallel ? "parallel" : "serial");
        EXPECT_EQ(r.committedUops, w.totalMicroOps());
    }
}

TEST(EngineLaxP2P, SerialIsDeterministic)
{
    auto config = baseConfig("uniform", SchemeKind::LaxP2P, false);
    config.engine.slackBound = 8;
    expectSameSimulation(runSimulation(config), runSimulation(config));
}

TEST(EngineLaxP2P, ViolationsBetweenCcAndUnbounded)
{
    auto p2p = baseConfig("falseshare", SchemeKind::LaxP2P, false);
    p2p.engine.slackBound = 8;
    auto cc = baseConfig("falseshare", SchemeKind::CycleByCycle, false);
    const auto r_p2p = runSimulation(p2p);
    const auto r_cc = runSimulation(cc);
    EXPECT_EQ(r_cc.violations.total(), 0u);
    EXPECT_GT(r_p2p.violations.total(), 0u);
}

TEST(EngineLaxP2P, PairwiseSlackAllowsLargerGlobalSpread)
{
    // With chains of peers the max global spread may exceed the
    // pairwise bound — the defining difference vs Bounded.
    auto config = baseConfig("uniform", SchemeKind::LaxP2P, false);
    config.workload.iters = 2000;
    config.engine.slackBound = 4;
    config.engine.p2pShufflePeriod = 100;
    const auto r = runSimulation(config);
    // Sanity only: pairwise bound times core count is a hard ceiling.
    EXPECT_LE(r.host.maxObservedSlack, 4u * 8u + 8u);
}

TEST(EngineStress, TinyQueuesStillComplete)
{
    // Exercise the OutQ backpressure and InQ overflow paths hard.
    auto config = baseConfig("falseshare", SchemeKind::Bounded, true);
    config.engine.slackBound = 50;
    config.engine.queueCapacity = 64;
    config.engine.burstCycles = 8;
    const Workload w = makeWorkload(config.workload);
    const auto r = runSimulation(config);
    EXPECT_EQ(r.committedUops, w.totalMicroOps());
}

TEST(EngineExtraKernels, OceanAndRadixRunUnderAllHosts)
{
    for (const std::string kernel : {"ocean", "radix"}) {
        for (const bool parallel : {false, true}) {
            auto config =
                baseConfig(kernel, SchemeKind::Bounded, parallel);
            config.workload.iters = 2048;   // radix keys
            config.workload.matrixN = 64;   // ocean grid
            config.workload.timesteps = 2;  // ocean sweeps
            config.engine.maxCommittedUops = 25000;
            const auto r = runSimulation(config);
            SCOPED_TRACE(kernel + (parallel ? "/par" : "/ser"));
            EXPECT_GT(r.committedUops, 10000u);
        }
    }
}

TEST(EngineWarmup, DiscardsInitializationStatistics)
{
    for (const bool parallel : {false, true}) {
        auto full = baseConfig("uniform", SchemeKind::Bounded, parallel);
        full.workload.iters = 4000;
        auto warm = full;
        warm.engine.warmupUops = 40000;
        const auto r_full = runSimulation(full);
        const auto r_warm = runSimulation(warm);
        SCOPED_TRACE(parallel ? "parallel" : "serial");
        // The warm run reports only post-warmup committed work.
        EXPECT_LT(r_warm.committedUops, r_full.committedUops);
        EXPECT_GE(r_full.committedUops,
                  r_warm.committedUops + 30000);
        // Cold-start L1 misses are excluded after the reset.
        EXPECT_LT(r_warm.coreTotal.l1dMisses,
                  r_full.coreTotal.l1dMisses);
    }
}

TEST(EngineAdaptive, WindowedRateControllerRunsAndAdjusts)
{
    auto config = baseConfig("falseshare", SchemeKind::Adaptive, false);
    config.workload.iters = 3000;
    config.engine.adaptive.windowedRate = true;
    config.engine.adaptive.targetViolationRate = 0.002;
    config.engine.adaptive.epochCycles = 500;
    config.engine.adaptive.initialBound = 256;
    const Workload w = makeWorkload(config.workload);
    const auto r = runSimulation(config);
    EXPECT_GT(r.host.slackAdjustments, 0u);
    EXPECT_EQ(r.committedUops, w.totalMicroOps());
    // Regression guard for the unbudgeted-idle-skip bug: simulated
    // time may be distorted by slack (falseshare saturates the bus),
    // but must not explode by orders of magnitude.
    auto cc_config =
        baseConfig("falseshare", SchemeKind::CycleByCycle, false);
    cc_config.workload.iters = 3000;
    const auto r_cc = runSimulation(cc_config);
    EXPECT_LT(r.execCycles, 10 * r_cc.execCycles);
}

TEST(EngineRecovery, RollbackStormWalksTheDegradationLadder)
{
    // Speculative run tuned to roll back constantly: an impossible
    // violation-rate target keeps requesting rollbacks, the storm
    // detector demotes to adaptive, and the still-pinned controller
    // then demotes to fixed slack=1. Every rung must be logged and
    // the run must still complete.
    auto config = baseConfig("falseshare", SchemeKind::Adaptive, false);
    config.workload.iters = 2000;
    config.engine.adaptive.targetViolationRate = 1e-6;
    config.engine.adaptive.epochCycles = 500;
    config.engine.adaptive.initialBound = 64;
    config.engine.adaptive.minBound = 1;
    config.engine.checkpoint.mode = CheckpointMode::Speculative;
    config.engine.checkpoint.interval = 1000;
    config.engine.recovery.stormThreshold = 3;
    config.engine.recovery.stormWindow = 20000;
    config.engine.recovery.pinnedEpochLimit = 4;
    config.engine.recovery.repromoteAfter = 0; // never re-promote

    const Workload w = makeWorkload(config.workload);
    const auto r = runSimulation(config);
    EXPECT_EQ(r.committedUops, w.totalMicroOps());
    EXPECT_EQ(r.degradationLevel, "fixed-slack");
    EXPECT_GE(r.demotions, 2u);
    EXPECT_EQ(r.repromotions, 0u);

    const auto &transitions = r.forensics.decisions.transitions();
    ASSERT_GE(transitions.size(), 2u);
    bool saw_storm = false, saw_pinned = false;
    for (const auto &t : transitions) {
        if (std::string(t.reason) == "rollback-storm") {
            EXPECT_STREQ(t.from, "speculative");
            EXPECT_STREQ(t.to, "adaptive");
            saw_storm = true;
        } else if (std::string(t.reason) == "pinned-at-min") {
            EXPECT_STREQ(t.from, "adaptive");
            EXPECT_STREQ(t.to, "fixed-slack");
            saw_pinned = true;
        }
    }
    EXPECT_TRUE(saw_storm) << "missing speculative->adaptive demotion";
    EXPECT_TRUE(saw_pinned) << "missing adaptive->fixed-slack demotion";
    // Demoted pacing pins the bound at the quantum-equivalent floor.
    EXPECT_EQ(r.finalSlackBound, 1u);
}

TEST(EngineRecovery, RepromotesAfterBackoffElapses)
{
    // Same storm setup, but with a short re-promotion backoff the
    // ladder must climb back up at least once and log the attempt.
    auto config = baseConfig("falseshare", SchemeKind::Adaptive, false);
    config.workload.iters = 3000;
    config.engine.adaptive.targetViolationRate = 1e-6;
    config.engine.adaptive.epochCycles = 500;
    config.engine.adaptive.initialBound = 64;
    config.engine.checkpoint.mode = CheckpointMode::Speculative;
    config.engine.checkpoint.interval = 1000;
    config.engine.recovery.stormThreshold = 3;
    config.engine.recovery.stormWindow = 20000;
    config.engine.recovery.repromoteAfter = 5000;

    const Workload w = makeWorkload(config.workload);
    const auto r = runSimulation(config);
    EXPECT_EQ(r.committedUops, w.totalMicroOps());
    EXPECT_GE(r.demotions, 1u);
    EXPECT_GE(r.repromotions, 1u);
    bool saw_repromotion = false;
    for (const auto &t : r.forensics.decisions.transitions()) {
        if (std::string(t.reason) == "backoff-elapsed")
            saw_repromotion = true;
    }
    EXPECT_TRUE(saw_repromotion);
}

TEST(EngineRecovery, DisabledDetectionLeavesRunsUntouched)
{
    // All recovery knobs off (the defaults): a speculative run storms
    // away exactly as before the ladder existed.
    auto config = baseConfig("falseshare", SchemeKind::Adaptive, false);
    config.workload.iters = 1000;
    config.engine.adaptive.targetViolationRate = 0.05;
    config.engine.adaptive.initialBound = 64;
    config.engine.checkpoint.mode = CheckpointMode::Speculative;
    config.engine.checkpoint.interval = 1000;

    const Workload w = makeWorkload(config.workload);
    const auto r = runSimulation(config);
    EXPECT_EQ(r.committedUops, w.totalMicroOps());
    EXPECT_EQ(r.degradationLevel, "speculative");
    EXPECT_EQ(r.demotions, 0u);
}
