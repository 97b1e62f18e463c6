/**
 * @file
 * Unit tests for the pacing policy and the adaptive slack controller.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/pacer.hh"

using namespace slacksim;

namespace {

EngineConfig
engineFor(SchemeKind scheme)
{
    EngineConfig e;
    e.scheme = scheme;
    e.slackBound = 10;
    e.quantum = 8;
    e.adaptive.targetViolationRate = 0.01; // 1 violation / 100 cycles
    e.adaptive.violationBand = 0.05;
    e.adaptive.epochCycles = 100;
    e.adaptive.initialBound = 8;
    e.adaptive.minBound = 1;
    e.adaptive.maxBound = 64;
    return e;
}

} // namespace

TEST(Pacer, CycleByCycleTracksGlobal)
{
    HostStats host;
    Pacer p(engineFor(SchemeKind::CycleByCycle), 8, &host);
    EXPECT_EQ(p.maxLocalFor(0), 0u);
    EXPECT_EQ(p.maxLocalFor(123), 123u);
    EXPECT_TRUE(p.sortedService());
}

TEST(Pacer, BoundedAddsSlack)
{
    HostStats host;
    Pacer p(engineFor(SchemeKind::Bounded), 8, &host);
    EXPECT_EQ(p.maxLocalFor(100), 110u);
    EXPECT_FALSE(p.sortedService());
    EXPECT_EQ(p.currentBound(), 10u);
}

TEST(Pacer, QuantumRunsToNextBoundary)
{
    HostStats host;
    Pacer p(engineFor(SchemeKind::Quantum), 8, &host);
    EXPECT_EQ(p.maxLocalFor(0), 7u);
    EXPECT_EQ(p.maxLocalFor(7), 7u);
    EXPECT_EQ(p.maxLocalFor(8), 15u);
    EXPECT_EQ(p.maxLocalFor(15), 15u);
    EXPECT_FALSE(p.sortedService());
}

TEST(Pacer, UnboundedNeverLimits)
{
    HostStats host;
    Pacer p(engineFor(SchemeKind::Unbounded), 8, &host);
    EXPECT_GT(p.maxLocalFor(0), Tick{1} << 60);
}

TEST(Pacer, ReplayModeForcesCycleByCycle)
{
    HostStats host;
    Pacer p(engineFor(SchemeKind::Bounded), 8, &host);
    p.setReplayMode(true);
    EXPECT_EQ(p.maxLocalFor(100), 100u);
    EXPECT_TRUE(p.sortedService());
    p.setReplayMode(false);
    EXPECT_EQ(p.maxLocalFor(100), 110u);
}

TEST(AdaptiveController, IncreasesBoundWhenRateBelowBand)
{
    HostStats host;
    Pacer p(engineFor(SchemeKind::Adaptive), 8, &host);
    EXPECT_EQ(p.currentBound(), 8u);
    ViolationStats v; // zero violations
    p.observe(100, v);
    EXPECT_GT(p.currentBound(), 8u);
    EXPECT_EQ(host.slackAdjustments, 1u);
}

TEST(AdaptiveController, DecreasesBoundWhenRateAboveBand)
{
    HostStats host;
    Pacer p(engineFor(SchemeKind::Adaptive), 8, &host);
    ViolationStats v;
    v.busViolations = 50; // rate 0.5 >> 0.01 target
    p.observe(100, v);
    EXPECT_LT(p.currentBound(), 8u);
}

TEST(AdaptiveController, DeadZoneHoldsBound)
{
    HostStats host;
    Pacer p(engineFor(SchemeKind::Adaptive), 8, &host);
    ViolationStats v;
    v.busViolations = 1; // rate exactly at target (1/100)
    p.observe(100, v);
    EXPECT_EQ(p.currentBound(), 8u);
    EXPECT_EQ(host.slackAdjustments, 0u);
}

TEST(AdaptiveController, RespectsEpochPeriod)
{
    HostStats host;
    Pacer p(engineFor(SchemeKind::Adaptive), 8, &host);
    ViolationStats v;
    p.observe(50, v); // before the first epoch boundary
    EXPECT_EQ(p.currentBound(), 8u);
    p.observe(100, v);
    const Tick after_first = p.currentBound();
    EXPECT_GT(after_first, 8u);
    p.observe(150, v); // within the new epoch: no change
    EXPECT_EQ(p.currentBound(), after_first);
}

TEST(AdaptiveController, ClampsToMinAndMax)
{
    HostStats host;
    EngineConfig e = engineFor(SchemeKind::Adaptive);
    Pacer p(e, 8, &host);
    ViolationStats heavy;
    heavy.busViolations = 1000000;
    for (Tick t = 100; t <= 5000; t += 100)
        p.observe(t, heavy);
    EXPECT_EQ(p.currentBound(), e.adaptive.minBound);

    Pacer q(e, 8, &host);
    ViolationStats none;
    for (Tick t = 100; t <= 20000; t += 100)
        q.observe(t, none);
    EXPECT_EQ(q.currentBound(), e.adaptive.maxBound);
}

TEST(AdaptiveController, CountsSelectedViolationTypesOnly)
{
    HostStats host;
    EngineConfig e = engineFor(SchemeKind::Adaptive);
    e.adaptive.adaptOnBus = false; // only map violations count
    Pacer p(e, 8, &host);
    ViolationStats v;
    v.busViolations = 1000; // ignored
    p.observe(100, v);
    EXPECT_GT(p.currentBound(), 8u); // rate counted as 0 -> grow
}

TEST(AdaptiveController, SnapshotRoundTrip)
{
    HostStats host;
    Pacer p(engineFor(SchemeKind::Adaptive), 8, &host);
    ViolationStats none;
    p.observe(100, none);
    const Tick bound = p.currentBound();

    SnapshotWriter w;
    p.save(w);
    p.observe(200, none);
    EXPECT_NE(p.currentBound(), bound);

    SnapshotReader r(w.bytes());
    p.restore(r);
    EXPECT_EQ(p.currentBound(), bound);
    EXPECT_TRUE(r.exhausted());
}

TEST(LaxP2P, PacesAgainstPeerNotGlobal)
{
    HostStats host;
    EngineConfig e = engineFor(SchemeKind::LaxP2P);
    e.slackBound = 5;
    Pacer p(e, 4, &host);
    std::vector<Tick> locals = {100, 200, 300, 400};
    for (CoreId c = 0; c < 4; ++c) {
        const Tick limit = p.maxLocalForCore(c, 100, locals);
        // The limit is some peer's local + bound, never own + bound.
        bool matches_a_peer = false;
        for (CoreId o = 0; o < 4; ++o)
            if (o != c && limit == locals[o] + 5)
                matches_a_peer = true;
        EXPECT_TRUE(matches_a_peer) << "core " << c;
    }
}

TEST(LaxP2P, SlowestCoreCanAlwaysRun)
{
    HostStats host;
    EngineConfig e = engineFor(SchemeKind::LaxP2P);
    e.slackBound = 3;
    e.p2pShufflePeriod = 50;
    Pacer p(e, 8, &host);
    std::vector<Tick> locals(8);
    for (int round = 0; round < 200; ++round) {
        // Slowest core is index round % 8 at time 10*round.
        const Tick g = 10 * static_cast<Tick>(round);
        for (CoreId c = 0; c < 8; ++c)
            locals[c] = g + (c == round % 8 ? 0 : 1 + c);
        const CoreId slow = round % 8;
        const Tick limit = p.maxLocalForCore(slow, g, locals);
        EXPECT_GE(limit, locals[slow]) << "deadlock at round " << round;
    }
}

TEST(LaxP2P, FinishedPeerDoesNotFreezeTheSlowestCore)
{
    HostStats host;
    EngineConfig e = engineFor(SchemeKind::LaxP2P);
    e.slackBound = 10;
    Pacer p(e, 2, &host);
    // Core 0 finished at cycle 100; core 1, the only unfinished core,
    // is the global minimum at 500 and its only possible peer is core
    // 0. Pacing it against the stopped clock would freeze the run.
    const std::vector<Tick> locals = {100, 500};
    EXPECT_EQ(p.maxLocalForCore(1, 500, locals), 510u);
}

TEST(LaxP2P, ReshufflesPeriodically)
{
    HostStats host;
    EngineConfig e = engineFor(SchemeKind::LaxP2P);
    e.p2pShufflePeriod = 10;
    Pacer p(e, 8, &host);
    std::vector<Tick> locals(8, 0);
    // Sample limits over many shuffle periods with asymmetric locals;
    // if peers never changed, core 0's limit would be constant.
    for (CoreId c = 0; c < 8; ++c)
        locals[c] = 1000 * (c + 1);
    std::set<Tick> seen;
    for (Tick t = 0; t < 2000; t += 10)
        seen.insert(p.maxLocalForCore(0, t, locals));
    EXPECT_GT(seen.size(), 2u);
}

TEST(LaxP2P, ReplayModeOverridesPeers)
{
    HostStats host;
    Pacer p(engineFor(SchemeKind::LaxP2P), 4, &host);
    p.setReplayMode(true);
    std::vector<Tick> locals = {7, 900, 900, 900};
    EXPECT_EQ(p.maxLocalForCore(1, 7, locals), 7u);
    EXPECT_TRUE(p.sortedService());
}

TEST(LaxP2P, SnapshotRestoresPairings)
{
    HostStats host;
    EngineConfig e = engineFor(SchemeKind::LaxP2P);
    e.p2pShufflePeriod = 1000000; // no reshuffle during the test
    Pacer p(e, 8, &host);
    std::vector<Tick> locals = {10, 20, 30, 40, 50, 60, 70, 80};
    std::vector<Tick> limits_before;
    for (CoreId c = 0; c < 8; ++c)
        limits_before.push_back(p.maxLocalForCore(c, 10, locals));

    SnapshotWriter w;
    p.save(w);
    SnapshotReader r(w.bytes());
    Pacer q(e, 8, &host);
    q.restore(r);
    for (CoreId c = 0; c < 8; ++c)
        EXPECT_EQ(q.maxLocalForCore(c, 10, locals), limits_before[c]);
}

TEST(AdaptiveController, WindowedRateUsesPerEpochDeltas)
{
    HostStats host;
    EngineConfig e = engineFor(SchemeKind::Adaptive);
    e.adaptive.windowedRate = true;
    Pacer p(e, 8, &host);
    ViolationStats v;

    // Epoch 1: a burst of violations far above target -> shrink.
    v.busViolations = 50;
    p.observe(100, v);
    const Tick after_burst = p.currentBound();
    EXPECT_LT(after_burst, 8u);

    // Epoch 2: no NEW violations. The cumulative controller would
    // still see rate 50/200 >> target and shrink again; the windowed
    // one sees 0/100 < target and grows.
    p.observe(200, v);
    EXPECT_GT(p.currentBound(), after_burst);
}

TEST(AdaptiveController, CumulativeRateKeepsHistory)
{
    HostStats host;
    EngineConfig e = engineFor(SchemeKind::Adaptive);
    e.adaptive.windowedRate = false; // paper default
    Pacer p(e, 8, &host);
    ViolationStats v;
    v.busViolations = 50;
    p.observe(100, v);
    const Tick after_burst = p.currentBound();
    p.observe(200, v); // rate 50/200 = 0.25 still >> 0.01 -> shrink
    EXPECT_LE(p.currentBound(), after_burst);
}
