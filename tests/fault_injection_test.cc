/**
 * @file
 * Tests for the deterministic fault-injection harness (DESIGN.md §9):
 * spec-grammar enforcement, each fault kind firing repeatably from
 * the same seed and being attributed to the layer that contained it,
 * checkpoint-integrity fallback/demotion behavior, and the
 * zero-cost-when-disabled property.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "core/run.hh"
#include "fault/fault_plan.hh"
#include "scratch_path.hh"
#include "workload/kernels.hh"

using namespace slacksim;
using fault::FaultKind;
using fault::FaultPlan;
using fault::InjectionRecord;

namespace {

/** Serial speculative baseline that rolls back on its own (see
 *  checkpoint_test's measureConfig): checkpoints every 1000 cycles,
 *  far too much initial slack. */
SimConfig
specConfig()
{
    SimConfig config;
    config.workload.kernel = "falseshare";
    config.workload.numThreads = config.target.numCores;
    config.workload.iters = 2000;
    config.workload.footprintBytes = 64 * 1024;
    config.engine.parallelHost = false;
    config.engine.scheme = SchemeKind::Adaptive;
    config.engine.adaptive.targetViolationRate = 0.05;
    config.engine.adaptive.initialBound = 64;
    config.engine.checkpoint.mode = CheckpointMode::Speculative;
    config.engine.checkpoint.interval = 1000;
    return config;
}

/** @return the record of @p kind, or nullptr. */
const InjectionRecord *
findRecord(const RunResult &r, FaultKind kind)
{
    for (const auto &rec : r.faultInjections) {
        if (rec.kind == kind)
            return &rec;
    }
    return nullptr;
}

void
expectCompleted(const SimConfig &config, const RunResult &r)
{
    const Workload w = makeWorkload(config.workload);
    EXPECT_EQ(r.committedUops, w.totalMicroOps())
        << "faulted run did not complete the trace";
}

} // namespace

TEST(FaultSpecGrammar, ParsesEveryKind)
{
    const auto one = FaultPlan::parseSpec("snapshot-corrupt@ckpt:2");
    EXPECT_EQ(one.kind, FaultKind::SnapshotCorrupt);
    EXPECT_EQ(one.trigger, 2u);

    const auto stall =
        FaultPlan::parseSpec("worker-stall@cycle:5000:50:3");
    EXPECT_EQ(stall.kind, FaultKind::WorkerStall);
    EXPECT_EQ(stall.trigger, 5000u);
    EXPECT_EQ(stall.arg0, 50u);
    EXPECT_EQ(stall.arg1, 3u);

    const auto list = FaultPlan::parseSpecList(
        "child-kill@ckpt:1,io-fail@write:2;backpressure@cycle:10:100");
    ASSERT_EQ(list.size(), 3u);
    EXPECT_EQ(list[0].kind, FaultKind::ChildKill);
    EXPECT_EQ(list[1].kind, FaultKind::IoFail);
    EXPECT_EQ(list[2].kind, FaultKind::Backpressure);
    EXPECT_EQ(list[2].arg0, 100u);
}

TEST(FaultSpecGrammarDeath, RejectsMalformedSpecs)
{
    EXPECT_DEATH(FaultPlan::parseSpec("meteor-strike@ckpt:1"),
                 "unknown fault kind");
    EXPECT_DEATH(FaultPlan::parseSpec("snapshot-corrupt"),
                 "not <kind>@<site>");
    EXPECT_DEATH(FaultPlan::parseSpec("snapshot-corrupt@cycle:1"),
                 "trigger site");
    EXPECT_DEATH(FaultPlan::parseSpec("snapshot-corrupt@ckpt:"),
                 "empty trigger");
    EXPECT_DEATH(FaultPlan::parseSpec("snapshot-corrupt@ckpt:-2"),
                 "bad trigger");
    EXPECT_DEATH(FaultPlan::parseSpec("snapshot-corrupt@ckpt:5x"),
                 "bad trigger");
    EXPECT_DEATH(FaultPlan::parseSpec("worker-stall@cycle:100"),
                 "needs cycle:N:MS");
    EXPECT_DEATH(FaultPlan::parseSpec("backpressure@cycle:10:0"),
                 "COUNT must be in");
    EXPECT_DEATH(FaultPlan::parseSpec("backpressure@cycle:10:99999999"),
                 "COUNT must be in");
    EXPECT_DEATH(FaultPlan::parseSpec("io-fail@write:1:extra"),
                 "trailing args");
}

TEST(FaultLayer, ZeroCostWhenDisabled)
{
    // No plan installed: every hook is one relaxed load of nullptr.
    EXPECT_EQ(FaultPlan::active(), nullptr);
    const auto r = runSimulation(specConfig());
    EXPECT_EQ(r.faultSpecCount, 0u);
    EXPECT_TRUE(r.faultInjections.empty());
    EXPECT_EQ(FaultPlan::active(), nullptr);
}

TEST(FaultInjection, SnapshotCorruptionRestoresFromLastGood)
{
    // Corrupt checkpoint 2's sealed arena, then force a rollback in
    // its interval: the restore must detect the damage and fall back
    // to the last good generation (checkpoint 1).
    SimConfig config = specConfig();
    config.engine.faultSpecs = {
        "snapshot-corrupt@ckpt:2,spurious-rollback@ckpt:2"};
    config.engine.faultSeed = 3;

    const RunResult r = runSimulation(config);
    expectCompleted(config, r);
    EXPECT_GT(r.host.rollbacks, 0u);

    const auto *corrupt = findRecord(r, FaultKind::SnapshotCorrupt);
    ASSERT_NE(corrupt, nullptr);
    EXPECT_EQ(corrupt->handledBy, "restore-fallback");
    EXPECT_NE(corrupt->detail.find("bit-flip"), std::string::npos);
    const auto *forced = findRecord(r, FaultKind::SpuriousRollback);
    ASSERT_NE(forced, nullptr);
    EXPECT_EQ(forced->handledBy, "manager-rollback");

    // The run carries on speculating: integrity fallback is not a
    // demotion as long as one good generation remained.
    EXPECT_EQ(r.degradationLevel, "speculative");
    EXPECT_EQ(r.demotions, 0u);

    // The acceptance bar: a faulted run either matches the fault-free
    // run's final stats or carries a clean demotion record. Here the
    // fallback restore rewinds further than the fault-free run does,
    // so completion must be exact even though cycle counts may differ.
    const SimConfig clean_config = [] {
        SimConfig c = specConfig();
        return c;
    }();
    const RunResult clean = runSimulation(clean_config);
    EXPECT_EQ(r.committedUops, clean.committedUops);
}

TEST(FaultInjection, SnapshotTruncationDetectedByLengthTrailer)
{
    SimConfig config = specConfig();
    config.engine.faultSpecs = {
        "snapshot-truncate@ckpt:2,spurious-rollback@ckpt:2"};
    const RunResult r = runSimulation(config);
    expectCompleted(config, r);

    const auto *trunc = findRecord(r, FaultKind::SnapshotTruncate);
    ASSERT_NE(trunc, nullptr);
    EXPECT_EQ(trunc->handledBy, "restore-fallback");
}

TEST(FaultInjection, CorruptOnlyGenerationDemotesInsteadOfCrashing)
{
    // Checkpoint 1 is the only generation when the forced rollback
    // lands: with nothing valid to restore, the run must demote out
    // of speculation and still finish.
    SimConfig config = specConfig();
    config.engine.faultSpecs = {
        "snapshot-corrupt@ckpt:1,spurious-rollback@ckpt:1"};
    const RunResult r = runSimulation(config);
    expectCompleted(config, r);

    const auto *corrupt = findRecord(r, FaultKind::SnapshotCorrupt);
    ASSERT_NE(corrupt, nullptr);
    EXPECT_EQ(corrupt->handledBy, "demoted");
    EXPECT_EQ(r.degradationLevel, "adaptive");
    EXPECT_EQ(r.demotions, 1u);
    ASSERT_FALSE(r.forensics.decisions.transitions().empty());
    const auto &t = r.forensics.decisions.transitions().front();
    EXPECT_STREQ(t.from, "speculative");
    EXPECT_STREQ(t.to, "adaptive");
    EXPECT_STREQ(t.reason, "checkpoint-integrity");
}

TEST(FaultInjection, SameSeedSameFaultsSameRun)
{
    SimConfig config = specConfig();
    config.engine.faultSpecs = {
        "snapshot-corrupt@ckpt:2,spurious-rollback@ckpt:2"};
    config.engine.faultSeed = 11;
    const RunResult a = runSimulation(config);
    const RunResult b = runSimulation(config);

    EXPECT_EQ(a.execCycles, b.execCycles);
    EXPECT_EQ(a.committedUops, b.committedUops);
    EXPECT_EQ(a.host.rollbacks, b.host.rollbacks);
    EXPECT_EQ(a.host.wastedCycles, b.host.wastedCycles);
    ASSERT_EQ(a.faultInjections.size(), b.faultInjections.size());
    for (std::size_t i = 0; i < a.faultInjections.size(); ++i) {
        EXPECT_EQ(a.faultInjections[i].cycle,
                  b.faultInjections[i].cycle);
        EXPECT_EQ(a.faultInjections[i].detail,
                  b.faultInjections[i].detail);
    }
}

TEST(FaultInjection, SpuriousRollbackAloneKeepsResultsExact)
{
    // A forced rollback with no underlying corruption replays into
    // the exact same simulated state: completion and commit counts
    // match the fault-free run.
    SimConfig config = specConfig();
    config.engine.faultSpecs = {"spurious-rollback@ckpt:3"};
    const RunResult faulted = runSimulation(config);
    expectCompleted(config, faulted);
    const auto *forced =
        findRecord(faulted, FaultKind::SpuriousRollback);
    ASSERT_NE(forced, nullptr);
    EXPECT_EQ(forced->handledBy, "manager-rollback");
    EXPECT_GT(faulted.host.rollbacks, 0u);

    SimConfig clean = specConfig();
    const RunResult r_clean = runSimulation(clean);
    EXPECT_EQ(faulted.committedUops, r_clean.committedUops);
    EXPECT_EQ(faulted.execCycles, r_clean.execCycles);
}

TEST(FaultInjection, WorkerStallIsInvisibleToSimulatedTime)
{
    // Stall core 1 for 30 host-ms in a parallel-engine CC run, where
    // the manager drives every core itself: wall time suffers,
    // simulated results cannot. A bound plan gives every core a full
    // visit each round, so the stall fires on the first round that
    // finds core 1 at or past its trigger: cycle 501.
    SimConfig config;
    config.workload.kernel = "falseshare";
    config.workload.numThreads = config.target.numCores;
    config.workload.iters = 300;
    config.workload.footprintBytes = 64 * 1024;
    config.engine.scheme = SchemeKind::CycleByCycle;
    config.engine.parallelHost = true;

    SimConfig faulted_config = config;
    faulted_config.engine.faultSpecs = {
        "worker-stall@cycle:500:30:1"};
    const RunResult faulted = runSimulation(faulted_config);
    const RunResult clean = runSimulation(config);

    const auto *stall = findRecord(faulted, FaultKind::WorkerStall);
    ASSERT_NE(stall, nullptr);
    EXPECT_NE(stall->detail.find("core 1"), std::string::npos);
    EXPECT_FALSE(stall->handledBy.empty());
    EXPECT_EQ(stall->cycle, 501u);

    EXPECT_EQ(faulted.execCycles, clean.execCycles);
    EXPECT_EQ(faulted.committedUops, clean.committedUops);
    EXPECT_EQ(faulted.violations.total(), clean.violations.total());
}

TEST(FaultInjection, WorkerStallIsInvisibleToInlineSpeculation)
{
    // The same on the inline engine under speculation, whose
    // rollbacks replay through sorted service: the stall fires once,
    // on core 3's first visit at or past cycle 2500, and every
    // simulated statistic matches the run without it.
    SimConfig config = specConfig();
    config.engine.parallelHost = true;
    config.engine.hostThreads = 1;

    SimConfig faulted_config = config;
    faulted_config.engine.faultSpecs = {"worker-stall@cycle:2500:30:3"};
    const RunResult faulted = runSimulation(faulted_config);
    const RunResult clean = runSimulation(config);

    const auto *stall = findRecord(faulted, FaultKind::WorkerStall);
    ASSERT_NE(stall, nullptr);
    EXPECT_NE(stall->detail.find("core 3"), std::string::npos);
    EXPECT_EQ(stall->cycle, 2500u);
    EXPECT_GT(faulted.host.rollbacks, 0u);
    EXPECT_EQ(faulted.host.rollbacks, clean.host.rollbacks);
    EXPECT_EQ(faulted.execCycles, clean.execCycles);
    EXPECT_EQ(faulted.committedUops, clean.committedUops);
    EXPECT_TRUE(faulted.perCore == clean.perCore);
    EXPECT_TRUE(faulted.uncore == clean.uncore);
    EXPECT_TRUE(faulted.violations == clean.violations);
}

TEST(FaultInjection, BackpressureBurstDrainsAndCompletes)
{
    SimConfig config = specConfig();
    config.engine.faultSpecs = {"backpressure@cycle:2000:500"};
    const RunResult r = runSimulation(config);
    expectCompleted(config, r);
    const auto *bp = findRecord(r, FaultKind::Backpressure);
    ASSERT_NE(bp, nullptr);
    EXPECT_EQ(bp->handledBy, "manager-resumed");
}

TEST(FaultInjection, BackpressureBurstOnParallelHost)
{
    SimConfig config;
    config.workload.kernel = "uniform";
    config.workload.numThreads = config.target.numCores;
    config.workload.iters = 2000;
    config.workload.footprintBytes = 64 * 1024;
    config.engine.scheme = SchemeKind::Bounded;
    config.engine.slackBound = 32;
    config.engine.parallelHost = true;
    config.engine.faultSpecs = {"backpressure@cycle:1000:500"};

    const RunResult r = runSimulation(config);
    expectCompleted(config, r);
    const auto *bp = findRecord(r, FaultKind::Backpressure);
    ASSERT_NE(bp, nullptr);
    EXPECT_EQ(bp->handledBy, "manager-resumed");
}

TEST(FaultInjection, IoFailureIsWarnedAndCounted)
{
    SimConfig config = specConfig();
    config.engine.obs.metricsOut =
        test::scratchPath("fault_io_metrics.csv");
    config.engine.faultSpecs = {"io-fail@write:1"};
    const RunResult r = runSimulation(config);
    expectCompleted(config, r);

    const auto *io = findRecord(r, FaultKind::IoFail);
    ASSERT_NE(io, nullptr);
    EXPECT_EQ(io->handledBy, "io-warn");
    EXPECT_GE(r.forensics.obs.ioErrors, 1u);
}

namespace {

/** fork()-isolated scenario runner (see fork_checkpoint_test). */
std::string
runInChild(void (*scenario)(int write_fd))
{
    int fds[2];
    if (pipe(fds) != 0)
        return "pipe-failed";
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid == 0) {
        close(fds[0]);
        scenario(fds[1]);
        _exit(0);
    }
    close(fds[1]);
    std::string out;
    char buf[512];
    ssize_t n;
    while ((n = read(fds[0], buf, sizeof(buf))) > 0)
        out.append(buf, static_cast<std::size_t>(n));
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    return out;
}

SimConfig
forkSpecConfig()
{
    SimConfig config = specConfig();
    config.workload.iters = 800;
    config.engine.checkpoint.tech = CheckpointTech::ForkProcess;
    config.engine.checkpoint.childTimeoutMs = 10000;
    return config;
}

void
reportForkRun(int fd, const SimConfig &config)
{
    const std::uint64_t trace_uops =
        makeWorkload(config.workload).totalMicroOps();
    const RunResult r = runSimulation(config);
    int handled = 0;
    for (const auto &rec : r.faultInjections) {
        if ((rec.kind == FaultKind::ChildKill ||
             rec.kind == FaultKind::ChildExit) &&
            rec.handledBy == "parent-recovery") {
            handled = 1;
        }
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "uops=%llu trace=%llu handled=%d",
                  static_cast<unsigned long long>(r.committedUops),
                  static_cast<unsigned long long>(trace_uops), handled);
    [[maybe_unused]] const ssize_t w =
        write(fd, buf, std::strlen(buf));
}

void
childKillScenario(int fd)
{
    SimConfig config = forkSpecConfig();
    config.engine.faultSpecs = {"child-kill@ckpt:2"};
    reportForkRun(fd, config);
}

void
childExitScenario(int fd)
{
    SimConfig config = forkSpecConfig();
    config.engine.faultSpecs = {"child-exit@ckpt:2"};
    reportForkRun(fd, config);
}

void
expectForkRecovered(const std::string &out)
{
    ASSERT_FALSE(out.empty());
    unsigned long long uops = 0, trace = 1;
    int handled = 0;
    ASSERT_EQ(std::sscanf(out.c_str(),
                          "uops=%llu trace=%llu handled=%d", &uops,
                          &trace, &handled),
              3)
        << out;
    EXPECT_EQ(uops, trace) << "faulted fork run did not complete";
    EXPECT_EQ(handled, 1) << "child death not attributed";
}

} // namespace

TEST(FaultInjectionFork, KilledChildIsRecoveredByParent)
{
    expectForkRecovered(runInChild(childKillScenario));
}

TEST(FaultInjectionFork, NonzeroChildExitIsRecoveredByParent)
{
    expectForkRecovered(runInChild(childExitScenario));
}
