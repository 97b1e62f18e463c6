/**
 * @file
 * Tests for the violation-forensics layer: the ViolationLedger's
 * attribution tables and snapshot participation, the ledger == counter
 * agreement on real runs, the adaptive decision chain, the uncore
 * counting-toggle semantics, and the flight recorder / stall watchdog.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/run.hh"
#include "obs/flight_recorder.hh"
#include "obs/forensics.hh"
#include "uncore/uncore.hh"
#include "util/logging.hh"
#include "util/snapshot.hh"

using namespace slacksim;
using obs::BandVerdict;
using obs::ViolationKind;
using obs::ViolationLedger;

namespace {

SimConfig
baseConfig(const std::string &kernel, SchemeKind scheme,
           bool parallel_host)
{
    SimConfig config;
    config.workload.kernel = kernel;
    config.workload.numThreads = config.target.numCores;
    config.workload.iters = 300;
    config.workload.footprintBytes = 64 * 1024;
    config.engine.scheme = scheme;
    config.engine.parallelHost = parallel_host;
    return config;
}

/** Sum the ledger's pair matrix per kind. */
std::pair<std::uint64_t, std::uint64_t>
pairSums(const ViolationLedger &ledger)
{
    std::uint64_t bus = 0;
    std::uint64_t map = 0;
    for (const auto &p : ledger.nonzeroPairs()) {
        bus += p.bus;
        map += p.map;
    }
    return {bus, map};
}

/** Every invariant the ledger promises against the run's counters. */
void
expectLedgerConsistent(const RunResult &r)
{
    const ViolationLedger &ledger = r.forensics.ledger;
    EXPECT_EQ(ledger.busTotal(), r.violations.busViolations);
    EXPECT_EQ(ledger.mapTotal(), r.violations.mapViolations);
    const auto [bus, map] = pairSums(ledger);
    EXPECT_EQ(bus, ledger.busTotal());
    EXPECT_EQ(map, ledger.mapTotal());
    EXPECT_EQ(ledger.busSlack().count(), ledger.busTotal());
    EXPECT_EQ(ledger.mapSlack().count(), ledger.mapTotal());
    std::uint64_t bucketed = ledger.untrackedBuckets();
    for (const auto &o : ledger.topOffenders(~std::size_t(0)))
        bucketed += o.total();
    EXPECT_EQ(bucketed, ledger.total());
}

} // namespace

TEST(ViolationLedger, AttributesKindPairAndBucket)
{
    ViolationLedger ledger;
    ledger.reset(4);
    ledger.record(ViolationKind::Bus, 0x1000, 1, 2, 10);
    ledger.record(ViolationKind::Bus, 0x1000, 1, 2, 100);
    ledger.record(ViolationKind::Map, 0x1040, 3, invalidCore, 5);

    EXPECT_EQ(ledger.busTotal(), 2u);
    EXPECT_EQ(ledger.mapTotal(), 1u);
    EXPECT_EQ(ledger.total(), 3u);
    EXPECT_EQ(ledger.busSlack().count(), 2u);
    EXPECT_EQ(ledger.busSlack().max(), 100u);
    EXPECT_EQ(ledger.mapSlack().count(), 1u);

    const auto pairs = ledger.nonzeroPairs();
    ASSERT_EQ(pairs.size(), 2u);
    bool saw_bus_pair = false;
    bool saw_map_pair = false;
    for (const auto &p : pairs) {
        if (p.requester == 1 && p.prior == 2) {
            EXPECT_EQ(p.bus, 2u);
            EXPECT_EQ(p.map, 0u);
            saw_bus_pair = true;
        }
        if (p.requester == 3 && p.prior == invalidCore) {
            EXPECT_EQ(p.map, 1u);
            saw_map_pair = true;
        }
    }
    EXPECT_TRUE(saw_bus_pair);
    EXPECT_TRUE(saw_map_pair);

    // 0x1000 and 0x1040 are distinct 64-line buckets?  No: bucket =
    // line >> 6, so 0x1000 -> 0x40 and 0x1040 -> 0x41.
    const auto top = ledger.topOffenders(10);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].bucket, 0x1000u >> ViolationLedger::bucketShift);
    EXPECT_EQ(top[0].total(), 2u);
    EXPECT_EQ(top[1].total(), 1u);
    EXPECT_EQ(ledger.untrackedBuckets(), 0u);
}

TEST(ViolationLedger, TopOffendersDeterministicOrder)
{
    ViolationLedger ledger;
    ledger.reset(2);
    // Equal totals: ties must break by ascending bucket.
    ledger.record(ViolationKind::Bus, 0x2000, 0, 1, 1);
    ledger.record(ViolationKind::Bus, 0x1000, 0, 1, 1);
    ledger.record(ViolationKind::Map, 0x3000, 1, 0, 1);
    const auto top = ledger.topOffenders(3);
    ASSERT_EQ(top.size(), 3u);
    EXPECT_EQ(top[0].bucket, 0x1000u >> ViolationLedger::bucketShift);
    EXPECT_EQ(top[1].bucket, 0x2000u >> ViolationLedger::bucketShift);
    EXPECT_EQ(top[2].bucket, 0x3000u >> ViolationLedger::bucketShift);
}

TEST(ViolationLedger, SaveRestoreRewindsEverything)
{
    ViolationLedger ledger;
    ledger.reset(2);
    ledger.record(ViolationKind::Bus, 0x1000, 0, 1, 7);
    ledger.record(ViolationKind::Map, 0x2000, 1, 0, 3);

    SnapshotWriter writer;
    ledger.save(writer);

    // Post-checkpoint divergence to be rolled back.
    ledger.record(ViolationKind::Bus, 0x9000, 1, 0, 99);
    ledger.record(ViolationKind::Map, 0x9000, 0, 1, 42);
    EXPECT_EQ(ledger.total(), 4u);

    const auto bytes = writer.release();
    SnapshotReader reader(bytes);
    ledger.restore(reader);
    EXPECT_TRUE(reader.exhausted());

    EXPECT_EQ(ledger.busTotal(), 1u);
    EXPECT_EQ(ledger.mapTotal(), 1u);
    EXPECT_EQ(ledger.busSlack().count(), 1u);
    EXPECT_EQ(ledger.busSlack().max(), 7u);
    const auto top = ledger.topOffenders(10);
    ASSERT_EQ(top.size(), 2u);
    for (const auto &o : top)
        EXPECT_NE(o.bucket, 0x9000u >> ViolationLedger::bucketShift);
    const auto [bus, map] = pairSums(ledger);
    EXPECT_EQ(bus, 1u);
    EXPECT_EQ(map, 1u);

    // Identical logical state must serialize to identical bytes
    // (deterministic snapshots are what makes checkpoint equality
    // checks in the engine tests meaningful).
    SnapshotWriter again;
    ledger.save(again);
    EXPECT_EQ(again.bytes(), bytes);
}

namespace {

BusMsg
busReq(MsgType type, CoreId src, Addr addr, Tick ts)
{
    BusMsg m;
    m.type = type;
    m.src = src;
    m.addr = addr;
    m.ts = ts;
    m.cache = CacheKind::Data;
    static SeqNum seq = 0;
    m.seq = seq++;
    return m;
}

} // namespace

TEST(UncoreForensics, CountingToggleKeepsMonitorAndLedgerConsistent)
{
    UncoreStats stats;
    ViolationStats violations;
    UncoreParams params;
    params.numCores = 4;
    params.l2.totalKb = 16;
    params.l2.ways = 4;
    params.l2.banks = 2;
    Uncore uncore(params, &stats, &violations);
    ViolationLedger ledger;
    ledger.reset(params.numCores);
    uncore.setLedger(&ledger);
    std::vector<Outbound> out;

    // Advance the bus monitor to 100, then trip it with ts=50.
    uncore.service(busReq(MsgType::GetS, 0, 0x1000, 100), out);
    auto r = uncore.service(busReq(MsgType::GetS, 1, 0x2000, 50), out);
    EXPECT_TRUE(r.busViolation);
    EXPECT_EQ(violations.busViolations, 1u);
    EXPECT_EQ(ledger.busTotal(), 1u);

    // Counting off (replay semantics): detection still reports the
    // violation to the caller and the monitors still advance on
    // in-order traffic, but neither the counters nor the ledger move.
    uncore.setViolationCounting(false);
    r = uncore.service(busReq(MsgType::GetS, 2, 0x3000, 60), out);
    EXPECT_TRUE(r.busViolation);
    EXPECT_EQ(violations.busViolations, 1u);
    EXPECT_EQ(ledger.busTotal(), 1u);
    // Monitor keeps advancing while counting is off...
    uncore.service(busReq(MsgType::GetS, 2, 0x3000, 200), out);

    // ...so when counting returns, detection picks up exactly where
    // the monitor is (ts=150 < 200 is a violation attributed to the
    // core that advanced the monitor to 200 — core 2).
    uncore.setViolationCounting(true);
    r = uncore.service(busReq(MsgType::GetS, 3, 0x4000, 150), out);
    EXPECT_TRUE(r.busViolation);
    EXPECT_EQ(violations.busViolations, 2u);
    EXPECT_EQ(ledger.busTotal(), 2u);
    bool found = false;
    for (const auto &p : ledger.nonzeroPairs()) {
        if (p.requester == 3) {
            EXPECT_EQ(p.prior, 2u);
            EXPECT_EQ(p.bus, 1u);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(ForensicsRun, LedgerMatchesViolationStatsSerial)
{
    auto config = baseConfig("falseshare", SchemeKind::Bounded, false);
    config.engine.slackBound = 256;
    config.engine.maxCommittedUops = 40000;
    const RunResult r = runSimulation(config);
    EXPECT_GT(r.violations.total(), 0u)
        << "config no longer produces violations; test is vacuous";
    expectLedgerConsistent(r);
}

TEST(ForensicsRun, LedgerMatchesViolationStatsParallel)
{
    auto config = baseConfig("falseshare", SchemeKind::Bounded, true);
    config.engine.slackBound = 256;
    config.engine.maxCommittedUops = 40000;
    const RunResult r = runSimulation(config);
    expectLedgerConsistent(r);
}

TEST(ForensicsRun, LedgerMatchesViolationStatsInline)
{
    // The inline engine's arrival order is deterministic, so the
    // ledger it fills must agree with the violation counters exactly.
    auto config = baseConfig("falseshare", SchemeKind::Bounded, true);
    config.engine.slackBound = 256;
    config.engine.maxCommittedUops = 40000;
    config.engine.hostThreads = 1;
    const RunResult r = runSimulation(config);
    EXPECT_GT(r.violations.total(), 0u)
        << "config no longer produces violations; test is vacuous";
    expectLedgerConsistent(r);
}

TEST(ForensicsRun, AdaptiveDecisionChainReplaysEveryBoundChange)
{
    auto config = baseConfig("falseshare", SchemeKind::Adaptive, false);
    config.engine.adaptive.targetViolationRate = 0.002;
    config.engine.adaptive.epochCycles = 500;
    config.engine.maxCommittedUops = 40000;
    const RunResult r = runSimulation(config);

    const auto &decisions = r.forensics.decisions.decisions();
    ASSERT_FALSE(decisions.empty());
    EXPECT_EQ(r.forensics.decisions.decisionsDropped(), 0u);

    std::uint64_t changes = 0;
    for (std::size_t i = 0; i < decisions.size(); ++i) {
        const auto &d = decisions[i];
        if (i > 0) {
            EXPECT_EQ(d.oldBound, decisions[i - 1].newBound)
                << "decision chain broken at record " << i;
        }
        switch (d.verdict) {
          case BandVerdict::Hold:
            EXPECT_EQ(d.oldBound, d.newBound);
            break;
          case BandVerdict::Grow:
            EXPECT_GE(d.newBound, d.oldBound);
            break;
          case BandVerdict::Shrink:
            EXPECT_LE(d.newBound, d.oldBound);
            break;
          case BandVerdict::Restored:
            break;
        }
        if (d.newBound != d.oldBound &&
            d.verdict != BandVerdict::Restored) {
            ++changes;
        }
    }
    EXPECT_EQ(changes, r.host.slackAdjustments);
    EXPECT_EQ(decisions.back().newBound, r.finalSlackBound);
    EXPECT_EQ(decisions.front().oldBound,
              config.engine.adaptive.initialBound);
}

TEST(ForensicsRun, SpeculativeRollbackRewindsLedgerWithCounters)
{
    auto config = baseConfig("falseshare", SchemeKind::Adaptive, false);
    config.engine.adaptive.targetViolationRate = 1e-5; // forces rollbacks
    config.engine.adaptive.epochCycles = 500;
    config.engine.checkpoint.mode = CheckpointMode::Speculative;
    config.engine.checkpoint.interval = 2000;
    config.engine.maxCommittedUops = 30000;
    const RunResult r = runSimulation(config);
    expectLedgerConsistent(r);

    // The episode log must cover the host counters.
    std::uint64_t ckpts = 0;
    std::uint64_t rollbacks = 0;
    for (const auto &e : r.forensics.decisions.episodes()) {
        if (e.kind == obs::EpisodeKind::Checkpoint)
            ++ckpts;
        if (e.kind == obs::EpisodeKind::Rollback)
            ++rollbacks;
    }
    EXPECT_EQ(ckpts, r.host.checkpointsTaken);
    EXPECT_EQ(rollbacks, r.host.rollbacks);
}

TEST(FlightRecorder, RecentReturnsNewestOldestFirst)
{
    obs::FlightRecorder rec;
    EXPECT_TRUE(rec.recent(8).empty());
    for (Tick t = 1; t <= 40; ++t)
        rec.note(t % 2 ? "tick" : "tock", t);
    EXPECT_EQ(rec.headSeq(), 40u);
    const auto recent = rec.recent(4);
    ASSERT_EQ(recent.size(), 4u);
    EXPECT_EQ(recent.front().cycle, 37u);
    EXPECT_EQ(recent.back().cycle, 40u);
    EXPECT_STREQ(recent.back().name, "tock");
}

TEST(StallWatchdog, DumpsNamingTheStalledWorker)
{
    std::atomic<Tick> live{0};
    std::atomic<Tick> stuck{42};
    obs::StallWatchdog wd(50);
    const std::size_t w_live =
        wd.addWorker("live worker", &live, nullptr, true);
    wd.addWorker("stuck worker", &stuck, nullptr, true);
    wd.setProgressProbe([] { return std::string("probe-line"); });
    wd.start();

    // Keep the live worker moving; the stuck one never changes.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (wd.stallDumps() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        live.fetch_add(1, std::memory_order_relaxed);
        wd.note(w_live, "advance", live.load());
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    wd.stop();

    ASSERT_GE(wd.stallDumps(), 1u);
    const std::string dump = wd.lastDump();
    EXPECT_NE(dump.find("stuck worker"), std::string::npos);
    EXPECT_NE(dump.find("STALLED"), std::string::npos);
    EXPECT_NE(dump.find("42"), std::string::npos) << dump;
    EXPECT_NE(dump.find("probe-line"), std::string::npos);
    // The live worker must not be flagged.
    const auto live_at = dump.find("live worker");
    ASSERT_NE(live_at, std::string::npos);
    const auto live_line_end = dump.find('\n', live_at);
    EXPECT_EQ(dump.substr(live_at, live_line_end - live_at)
                  .find("STALLED"),
              std::string::npos);
}

TEST(StallWatchdog, FinishedWorkerNeverStalls)
{
    std::atomic<Tick> clock{7};
    std::atomic<bool> finished{true};
    obs::StallWatchdog wd(50);
    wd.addWorker("done worker", &clock, &finished, true);
    wd.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    wd.stop();
    EXPECT_EQ(wd.stallDumps(), 0u);
}

TEST(StallWatchdog, DumpNowWorksWithoutStall)
{
    std::atomic<Tick> clock{1};
    obs::StallWatchdog wd(10000);
    wd.addWorker("worker a", &clock, nullptr, true);
    wd.start();
    wd.dumpNow("unit test");
    wd.stop();
    EXPECT_EQ(wd.stallDumps(), 1u);
    EXPECT_NE(wd.lastDump().find("unit test"), std::string::npos);
    EXPECT_NE(wd.lastDump().find("worker a"), std::string::npos);
}

TEST(StallWatchdog, EngineDumpShowsEachHostThreadPhase)
{
    // A watchdog alone (no --profile) arms the recorder, so a stall
    // dump names every host thread with the phase it is in: worker
    // threads register as "worker N", not under their cores' names.
    setQuietLogging(true);
    SimConfig config =
        baseConfig("uniform", SchemeKind::Bounded, /*parallel=*/true);
    config.engine.hostThreads = 3;
    config.engine.maxCommittedUops = 20000;
    config.engine.faultSpecs = {"worker-stall@cycle:2000:400"};
    config.engine.obs.watchdogMs = 50;
    const RunResult r = runSimulation(config);

    EXPECT_FALSE(r.forensics.profile.enabled);
    const std::string &dump = r.forensics.lastStallDump;
    ASSERT_GE(r.forensics.stallDumps, 1u);
    const auto at = dump.find("worker 0");
    ASSERT_NE(at, std::string::npos) << dump;
    const std::string line =
        dump.substr(at, dump.find('\n', at) - at);
    EXPECT_NE(line.find("phase="), std::string::npos) << dump;
    EXPECT_NE(dump.find("manager phase="), std::string::npos) << dump;
}
