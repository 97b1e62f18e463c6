/**
 * @file
 * Profile-side recorder tests: exclusive-time attribution through
 * nested scopes, exact per-thread counts across concurrent workers,
 * the disabled path being inert, the live phase the watchdog reads,
 * the perf_event fallback, folded-stack export shape, and a real
 * engine run landing host time in the simulate phase with span
 * reconstruction per worker.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/run.hh"
#include "obs/hw_counters.hh"
#include "obs/recorder.hh"
#include "util/logging.hh"

using namespace slacksim;
using namespace slacksim::obs;

namespace {

/** Burn a little host time so scopes accumulate nonzero ticks even on
 *  coarse clocks. Returns a value to keep the loop observable. */
std::uint64_t
spin(std::uint64_t iters)
{
    volatile std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < iters; ++i)
        acc += i * 2654435761u;
    return acc;
}

const PhaseTotal *
findTotal(const std::vector<PhaseTotal> &totals, const std::string &name)
{
    for (const auto &t : totals)
        if (t.name == name)
            return &t;
    return nullptr;
}

/** Live phase of the thread registered under @p role, as the stall
 *  watchdog sees it; nullptr when no such thread is registered. */
const char *
livePhaseOf(const std::string &role)
{
    for (const auto &[r, phase] : Recorder::instance().livePhases())
        if (r == role)
            return phase;
    return nullptr;
}

/** Arm a phases-only session (no trace rings). */
bool
beginProfile()
{
    return Recorder::instance().begin(captureClockAnchor(), 0);
}

} // namespace

TEST(RecorderProfile, NestedScopesAttributeExclusiveTime)
{
    Recorder &rec = Recorder::instance();
    ASSERT_TRUE(beginProfile());
    rec.registerThread("tester");

    {
        Scope drain(Phase::Drain);
        spin(200000);
        {
            Scope simulate(Phase::Simulate);
            spin(200000);
        }
        spin(200000);
    }

    const ProfileReport report = rec.end().profile;
    ASSERT_EQ(report.workers.size(), 1u);
    const ProfileWorker &w = report.workers[0];
    EXPECT_EQ(w.role, "tester");

    // Each phase appears once, exactly one scope each.
    const PhaseTotal *drain = findTotal(w.phases, "drain");
    const PhaseTotal *simulate = findTotal(w.phases, "simulate");
    ASSERT_NE(drain, nullptr);
    ASSERT_NE(simulate, nullptr);
    EXPECT_EQ(drain->count, 1u);
    EXPECT_EQ(simulate->count, 1u);
    EXPECT_GT(drain->ns, 0u);
    EXPECT_GT(simulate->ns, 0u);

    // The nested path exists and is attributed to the leaf.
    const PhaseTotal *nested = findTotal(w.paths, "drain;simulate");
    ASSERT_NE(nested, nullptr) << "nested path missing";
    EXPECT_EQ(nested->ns, simulate->ns)
        << "leaf total must equal its only path";

    // Exclusive attribution reconstructs the span exactly.
    std::uint64_t attributed = 0;
    for (const auto &p : w.phases)
        attributed += p.ns;
    EXPECT_EQ(attributed + w.otherNs, w.spanNs);
    EXPECT_EQ(w.truncated, 0u);
    EXPECT_EQ(w.droppedPaths, 0u);
}

TEST(RecorderProfile, PerThreadCountsAreExact)
{
    Recorder &rec = Recorder::instance();
    ASSERT_TRUE(beginProfile());

    constexpr int threads = 4;
    constexpr std::uint64_t scopesPerThread = 1000;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([t] {
            Recorder &r = Recorder::instance();
            r.registerThread("worker " + std::to_string(t));
            for (std::uint64_t i = 0; i < scopesPerThread; ++i) {
                Scope outer(Phase::Simulate);
                Scope inner(Phase::QueuePush);
                spin(50);
            }
            r.unregisterThread();
        });
    }
    for (auto &th : pool)
        th.join();

    const ProfileReport report = rec.end().profile;
    ASSERT_EQ(report.workers.size(), static_cast<std::size_t>(threads));
    for (const auto &w : report.workers) {
        const PhaseTotal *simulate = findTotal(w.phases, "simulate");
        const PhaseTotal *push = findTotal(w.phases, "queue-push");
        ASSERT_NE(simulate, nullptr) << w.role;
        ASSERT_NE(push, nullptr) << w.role;
        EXPECT_EQ(simulate->count, scopesPerThread) << w.role;
        EXPECT_EQ(push->count, scopesPerThread) << w.role;
        EXPECT_EQ(w.truncated, 0u) << w.role;
        std::uint64_t attributed = 0;
        for (const auto &p : w.phases)
            attributed += p.ns;
        EXPECT_EQ(attributed + w.otherNs, w.spanNs) << w.role;
    }

    // Cross-worker totals sum the per-worker counts.
    const PhaseTotal *simulate =
        findTotal(report.phaseTotals, "simulate");
    ASSERT_NE(simulate, nullptr);
    EXPECT_EQ(simulate->count,
              static_cast<std::uint64_t>(threads) * scopesPerThread);
}

TEST(RecorderProfile, ScopesWithoutSessionAreInert)
{
    Recorder &rec = Recorder::instance();
    ASSERT_FALSE(rec.active());

    // No session: scopes and registration must be no-ops.
    rec.registerThread("ghost");
    {
        Scope simulate(Phase::Simulate);
        Scope barrier(Phase::Barrier);
        spin(1000);
    }
    EXPECT_EQ(rec.boundSlot(), nullptr);
    EXPECT_EQ(livePhaseOf("ghost"), nullptr);

    // A following session starts from zero — nothing leaked in.
    ASSERT_TRUE(beginProfile());
    rec.registerThread("clean");
    const ProfileReport report = rec.end().profile;
    ASSERT_EQ(report.workers.size(), 1u);
    for (const auto &p : report.workers[0].phases)
        EXPECT_EQ(p.count, 0u) << p.name;
    EXPECT_TRUE(report.workers[0].paths.empty());
}

TEST(RecorderProfile, SecondConcurrentSessionIsRefused)
{
    Recorder &rec = Recorder::instance();
    ASSERT_TRUE(beginProfile());
    EXPECT_FALSE(beginProfile());
    const ProfileReport report = rec.end().profile;
    EXPECT_TRUE(report.enabled);
    ASSERT_FALSE(rec.active());
}

TEST(RecorderProfile, CurrentPhaseIsLiveDuringSession)
{
    Recorder &rec = Recorder::instance();
    ASSERT_TRUE(beginProfile());
    rec.registerThread("live");
    EXPECT_STREQ(livePhaseOf("live"), "idle");
    {
        Scope checkpoint(Phase::Checkpoint);
        EXPECT_STREQ(livePhaseOf("live"), "checkpoint");
        {
            Scope rollback(Phase::RollbackReplay);
            EXPECT_STREQ(livePhaseOf("live"), "rollback-replay");
        }
        EXPECT_STREQ(livePhaseOf("live"), "checkpoint");
    }
    EXPECT_STREQ(livePhaseOf("live"), "idle");
    EXPECT_EQ(livePhaseOf("nobody"), nullptr);
    rec.end();
}

TEST(RecorderProfile, VerdictNamesTheDominantPhase)
{
    ProfileReport report;
    report.enabled = true;
    report.phaseTotals = {{"simulate", 900, 10},
                          {"wait-for-slack", 100, 5},
                          {"other", 0, 0}};
    std::string verdict = profileVerdict(report);
    EXPECT_NE(verdict.find("simulate-bound"), std::string::npos)
        << verdict;

    report.phaseTotals = {{"simulate", 200, 10},
                          {"wait-for-slack", 800, 5},
                          {"other", 0, 0}};
    verdict = profileVerdict(report);
    EXPECT_NE(verdict.find("wait-for-slack"), std::string::npos)
        << verdict;
    EXPECT_NE(verdict.find("bottleneck"), std::string::npos) << verdict;
}

TEST(RecorderProfile, FoldedStacksExportShape)
{
    ProfileReport report;
    report.enabled = true;
    ProfileWorker w;
    w.role = "core 0";
    w.spanNs = 5'000'000;
    w.otherNs = 1'000'000;
    w.paths = {{"simulate", 3'000'000, 4},
               {"simulate;queue-push", 1'000'000, 2},
               {"sample", 100, 1}}; // sub-microsecond: skipped
    report.workers.push_back(w);

    std::ostringstream os;
    writeFoldedStacks(os, report);
    const std::string text = os.str();
    EXPECT_NE(text.find("core 0;simulate 3000"), std::string::npos)
        << text;
    EXPECT_NE(text.find("core 0;simulate;queue-push 1000"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("core 0;other 1000"), std::string::npos) << text;
    EXPECT_EQ(text.find("sample"), std::string::npos)
        << "sub-microsecond path must be skipped: " << text;

    // Every line is `stack count`: split on the last space, the tail
    // must be digits — the contract flamegraph.pl relies on.
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        const std::size_t sp = line.rfind(' ');
        ASSERT_NE(sp, std::string::npos) << line;
        ASSERT_LT(sp + 1, line.size()) << line;
        for (std::size_t i = sp + 1; i < line.size(); ++i)
            EXPECT_TRUE(line[i] >= '0' && line[i] <= '9') << line;
    }
}

TEST(HwCountersTest, ForcedFallbackReportsReason)
{
    HwCounters hw;
    EXPECT_FALSE(hw.open(true));
    EXPECT_FALSE(hw.available());
    EXPECT_FALSE(hw.reason().empty());
    const HwCounterTotals totals = hw.read();
    EXPECT_FALSE(totals.available);
    EXPECT_EQ(totals.cycles, 0u);
}

TEST(HwCountersTest, OpenEitherWorksOrExplainsItself)
{
    HwCounters hw;
    const bool ok = hw.open();
    if (ok) {
        spin(500000);
        const HwCounterTotals totals = hw.read();
        EXPECT_TRUE(totals.available);
        EXPECT_GT(totals.cycles + totals.instructions, 0u)
            << "counters opened but counted nothing";
    } else {
        // No perf_event permission / syscall: the fallback must say why.
        EXPECT_FALSE(hw.reason().empty());
        EXPECT_FALSE(hw.read().available);
    }
    hw.close();
}

TEST(ProfilerEngine, RunAttributesSimulateTime)
{
    setQuietLogging(true);
    SimConfig config;
    config.workload.kernel = "falseshare";
    config.workload.numThreads = config.target.numCores;
    config.workload.iters = 300;
    config.workload.footprintBytes = 64 * 1024;
    config.engine.scheme = SchemeKind::Bounded;
    config.engine.slackBound = 64;
    config.engine.maxCommittedUops = 30000;
    config.engine.parallelHost = false;
    config.engine.obs.profile = true;

    const RunResult r = runSimulation(config);
    const ProfileReport &profile = r.forensics.profile;
    ASSERT_TRUE(profile.enabled);
    EXPECT_GT(profile.wallNs, 0u);
    ASSERT_FALSE(profile.workers.empty());

    const PhaseTotal *simulate =
        findTotal(profile.phaseTotals, "simulate");
    ASSERT_NE(simulate, nullptr);
    EXPECT_GT(simulate->ns, 0u);
    EXPECT_GT(simulate->count, 0u);

    for (const auto &w : profile.workers) {
        std::uint64_t attributed = 0;
        for (const auto &p : w.phases)
            attributed += p.ns;
        if (w.otherNs == 0)
            EXPECT_GE(attributed, w.spanNs) << w.role;
        else
            EXPECT_EQ(attributed + w.otherNs, w.spanNs) << w.role;
    }

    // The recorder disarms at end of run: later scopes are inert.
    EXPECT_FALSE(Recorder::instance().active());
}
