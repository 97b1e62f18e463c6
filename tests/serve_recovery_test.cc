/**
 * @file
 * Crash-proofing unit tests: job-spec validation of the isolation /
 * retry keys (every rejection site exercised with hostile input),
 * durable-journal replay and rotation, the fork/supervise protocol
 * (clean run, crash verdict, cancel escalation, rlimits), and
 * CheckedOfstream::sync() durability plumbing.
 */

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/resource.h>

#include <gtest/gtest.h>

#include "serve/job_spec.hh"
#include "serve/journal.hh"
#include "serve/supervisor.hh"
#include "util/cancel.hh"
#include "util/io.hh"
#include "util/json_parse.hh"

using namespace slacksim;
using namespace slacksim::serve;

namespace {

/** Parse a spec and return the error ("" on acceptance). */
std::string
rejection(const std::string &text)
{
    JobSpec spec;
    std::string error;
    if (JobSpec::parse(json::parse(text), &spec, &error))
        return "";
    EXPECT_FALSE(error.empty()) << text;
    return error;
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::trunc);
    out << content;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace

// --- spec validation: the new wire-reachable keys -------------------

TEST(JobSpecIsolationTest, RejectsHostileInputPerSite)
{
    // Every branch added for crash-proofing, fed the wrong thing.
    // None of these may fatal() — they all must come back as protocol
    // errors (the daemon keeps running).
    EXPECT_NE(rejection(R"({"kernel": "fft", "isolation": 7})"), "");
    EXPECT_NE(
        rejection(R"({"kernel": "fft", "isolation": "proces"})")
            .find("did you mean 'process'"),
        std::string::npos);
    EXPECT_NE(
        rejection(R"({"kernel": "fft", "max_attempts": 0})")
            .find("[1, 10]"),
        std::string::npos);
    EXPECT_NE(
        rejection(R"({"kernel": "fft", "max_attempts": 11})")
            .find("[1, 10]"),
        std::string::npos);
    EXPECT_NE(rejection(R"({"kernel": "fft", "max_attempts": -3})"),
              "");
    EXPECT_NE(
        rejection(R"({"kernel": "fft", "rlimit_mem_mb": "lots"})"),
        "");
    EXPECT_NE(rejection(R"({"kernel": "fft", "rlimit_cpu_s": 1.5})"),
              "");
    // Typoed key gets the did-you-mean treatment like every other.
    EXPECT_NE(
        rejection(R"({"kernel": "fft", "isolaton": "process"})")
            .find("isolation"),
        std::string::npos);
}

TEST(JobSpecIsolationTest, WreckingFaultsRequireProcessIsolation)
{
    // job-crash / job-hang destroy the executing process; with
    // isolation pinned to inline they would kill the daemon, so the
    // validator refuses them up front.
    const std::string err = rejection(
        R"({"kernel": "fft", "isolation": "inline",
            "fault_spec": "job-crash@cycle:500"})");
    EXPECT_NE(err.find("process"), std::string::npos);
    EXPECT_NE(rejection(R"({"kernel": "fft", "isolation": "inline",
                 "fault_spec": "job-hang@cycle:500:1000"})"),
              "");
    // The same faults are fine when the spec asks for isolation, or
    // leaves the choice to the daemon (checked again at submit).
    EXPECT_EQ(rejection(R"({"kernel": "fft", "isolation": "process",
                 "fault_spec": "job-crash@cycle:500"})"),
              "");
    EXPECT_EQ(rejection(R"({"kernel": "fft",
                 "fault_spec": "job-hang@cycle:500:1000"})"),
              "");
}

TEST(JobSpecIsolationTest, DaemonKillWindowNeverAcceptedFromClients)
{
    // The daemon-restart drill is an operator knob on the serve
    // command line; a client submitting it is an unknown fault kind.
    EXPECT_NE(
        rejection(
            R"({"kernel": "fft", "isolation": "process",
                "fault_spec": "daemon-kill-window@start:1"})")
            .find("unknown fault kind"),
        std::string::npos);
}

TEST(JobSpecIsolationTest, NeedsProcessIsolationScansEveryEntry)
{
    JobSpec spec;
    std::string error;
    ASSERT_TRUE(JobSpec::parse(
        json::parse(R"({"kernel": "fft",
            "fault_spec": "worker-stall@cycle:500:2"})"),
        &spec, &error))
        << error;
    EXPECT_FALSE(spec.needsProcessIsolation());
    ASSERT_TRUE(JobSpec::parse(
        json::parse(R"({"kernel": "fft", "fault_spec":
            "worker-stall@cycle:500:2, job-crash@cycle:900"})"),
        &spec, &error))
        << error;
    EXPECT_TRUE(spec.needsProcessIsolation());
}

TEST(JobSpecIsolationTest, ToJsonRoundTripsIsolationKeys)
{
    JobSpec spec;
    std::string error;
    ASSERT_TRUE(JobSpec::parse(
        json::parse(R"({"kernel": "radix", "cores": 4,
            "isolation": "process", "max_attempts": 5,
            "rlimit_mem_mb": 2048, "rlimit_cpu_s": 30,
            "seed": 9})"),
        &spec, &error))
        << error;
    JobSpec back;
    ASSERT_TRUE(
        JobSpec::parse(json::parse(spec.toJson()), &back, &error))
        << error;
    EXPECT_EQ(back.isolation, "process");
    EXPECT_EQ(back.maxAttempts, 5u);
    EXPECT_EQ(back.rlimitMemMb, 2048u);
    EXPECT_EQ(back.rlimitCpuS, 30u);
    EXPECT_EQ(back.kernel, "radix");
    EXPECT_EQ(back.seed, 9u);
}

// --- journal replay -------------------------------------------------

TEST(JournalTest, ClassifiesQueuedRunningAndTerminalJobs)
{
    const std::string path = "journal_classify.jsonl";
    writeFile(
        path,
        "{\"schema\": \"slacksim.server_events.v1\"}\n"
        "{\"seq\": 1, \"event\": \"submitted\", \"job\": 1, "
        "\"attempt\": 1, \"max_attempts\": 3, "
        "\"idempotency_key\": \"k-1\", "
        "\"spec\": {\"kernel\": \"fft\", \"cores\": 2}}\n"
        "{\"seq\": 2, \"event\": \"started\", \"job\": 1}\n"
        "{\"seq\": 3, \"event\": \"completed\", \"job\": 1}\n"
        "{\"seq\": 4, \"event\": \"submitted\", \"job\": 2, "
        "\"attempt\": 2, \"max_attempts\": 5, "
        "\"spec\": {\"kernel\": \"radix\"}}\n"
        "{\"seq\": 5, \"event\": \"submitted\", \"job\": 3, "
        "\"spec\": {\"kernel\": \"lu\"}}\n"
        "{\"seq\": 6, \"event\": \"started\", \"job\": 3}\n"
        "{\"seq\": 7, \"event\": \"heartbeat\", \"job\": 99}\n"
        "{\"seq\": 8, \"event\": \"started\", \"jo"); // torn tail

    JournalReplay replay;
    ASSERT_TRUE(readJournal(path, &replay));
    std::remove(path.c_str());

    ASSERT_EQ(replay.jobs.size(), 3u);
    // Job 1 finished: nothing to replay.
    EXPECT_TRUE(replay.jobs[0].terminal);
    EXPECT_EQ(replay.jobs[0].idempotencyKey, "k-1");
    // Job 2 never started: re-admit as-is, attempt preserved.
    EXPECT_FALSE(replay.jobs[1].started);
    EXPECT_FALSE(replay.jobs[1].terminal);
    EXPECT_EQ(replay.jobs[1].attempt, 2u);
    EXPECT_EQ(replay.jobs[1].maxAttempts, 5u);
    // Job 3 was running at crash time.
    EXPECT_TRUE(replay.jobs[2].started);
    EXPECT_FALSE(replay.jobs[2].terminal);
    EXPECT_EQ(replay.jobs[2].attempt, 1u); // default when absent
    // The spec survives verbatim enough to resubmit.
    JobSpec spec;
    std::string error;
    ASSERT_TRUE(JobSpec::parse(json::parse(replay.jobs[2].specJson),
                               &spec, &error))
        << error << " <- " << replay.jobs[2].specJson;
    EXPECT_EQ(spec.kernel, "lu");
    // Header + torn tail counted, not fatal.
    EXPECT_EQ(replay.linesRead, 9u);
    EXPECT_EQ(replay.linesSkipped, 2u);
}

TEST(JournalTest, SkipsLinesWhoseNumbersDoNotFit)
{
    // A corrupted journal's numbers are checked before any cast: a
    // line whose job id is no integer in [0, 2^64), or whose attempt
    // counters are no integers in [0, 2^32), is skipped and counted.
    const std::string path = "journal_numbers.jsonl";
    writeFile(
        path,
        "{\"seq\": 1, \"event\": \"submitted\", \"job\": 1e20}\n"
        "{\"seq\": 2, \"event\": \"submitted\", \"job\": -1}\n"
        "{\"seq\": 3, \"event\": \"submitted\", \"job\": 1.5}\n"
        "{\"seq\": 4, \"event\": \"submitted\", \"job\": 2, "
        "\"attempt\": 1e12}\n"
        "{\"seq\": 5, \"event\": \"submitted\", \"job\": 3, "
        "\"max_attempts\": -1}\n"
        "{\"seq\": 6, \"event\": \"submitted\", \"job\": 4, "
        "\"attempt\": 2, \"max_attempts\": 4294967295}\n");

    JournalReplay replay;
    ASSERT_TRUE(readJournal(path, &replay));
    std::remove(path.c_str());

    EXPECT_EQ(replay.linesRead, 6u);
    EXPECT_EQ(replay.linesSkipped, 5u);
    ASSERT_EQ(replay.jobs.size(), 1u);
    EXPECT_EQ(replay.jobs[0].id, 4u);
    EXPECT_EQ(replay.jobs[0].attempt, 2u);
    EXPECT_EQ(replay.jobs[0].maxAttempts, 4294967295u);
}

TEST(JournalTest, MissingFileIsReportedNotFatal)
{
    JournalReplay replay;
    EXPECT_FALSE(readJournal("no_such_journal.jsonl", &replay));
    EXPECT_TRUE(replay.jobs.empty());
}

TEST(JournalTest, RotationArchivesGenerationsInOrder)
{
    const std::string path = "journal_rotate.jsonl";
    EXPECT_EQ(rotateJournal(path), ""); // nothing to rotate

    writeFile(path, "gen one\n");
    EXPECT_EQ(rotateJournal(path), path + ".1");
    writeFile(path, "gen two\n");
    EXPECT_EQ(rotateJournal(path), path + ".2");

    EXPECT_EQ(slurp(path + ".1"), "gen one\n");
    EXPECT_EQ(slurp(path + ".2"), "gen two\n");
    EXPECT_FALSE(std::ifstream(path).is_open()); // consumed
    std::remove((path + ".1").c_str());
    std::remove((path + ".2").c_str());
}

// --- fork/supervise protocol ----------------------------------------

namespace {

SimConfig
childConfig(const std::string &faultSpec)
{
    JobSpec spec;
    std::string error;
    std::string text = R"({"kernel": "fft", "cores": 2,
        "scheme": "quantum", "quantum": 16, "max_uops": 40000,
        "parallel_host": false, "isolation": "process")";
    if (!faultSpec.empty())
        text += ", \"fault_spec\": \"" + faultSpec + "\"";
    text += "}";
    EXPECT_TRUE(JobSpec::parse(json::parse(text), &spec, &error))
        << error;
    return spec.toConfig();
}

} // namespace

TEST(SupervisorTest, CleanChildReturnsAggregates)
{
    const SupervisedResult r = runIsolatedJob(
        childConfig(""), IsolationLimits{}, nullptr, nullptr);
    EXPECT_EQ(r.status, SupervisedResult::Status::Ok) << r.error;
    EXPECT_GE(r.committedUops, 40000u);
    EXPECT_GT(r.simulatedCycles, 0u);
    EXPECT_GE(r.spawnMs, 0.0);
    EXPECT_STREQ(supervisedStatusName(r.status), "ok");
}

TEST(SupervisorTest, SegfaultingChildYieldsCrashVerdict)
{
    // The job-crash fault raises SIGSEGV mid-simulation — inside the
    // child. The supervisor must classify it, not die with it.
    const SupervisedResult r =
        runIsolatedJob(childConfig("job-crash@cycle:500"),
                       IsolationLimits{}, nullptr, nullptr);
    EXPECT_EQ(r.status, SupervisedResult::Status::Crashed);
    EXPECT_EQ(r.signal, SIGSEGV);
    EXPECT_NE(r.error.find("SIGSEGV"), std::string::npos);
}

TEST(SupervisorTest, CancelEscalatesToKillOnUnresponsiveChild)
{
    // job-hang sleeps the child for 60s; a cancel can't drain
    // cooperatively, so after the grace window the supervisor must
    // SIGKILL — and classify the outcome as OUR cancel, not a crash.
    CancelToken cancel;
    cancel.requestCancel();
    IsolationLimits limits;
    limits.killGraceMs = 300;
    const SupervisedResult r =
        runIsolatedJob(childConfig("job-hang@cycle:500:60000"),
                       limits, &cancel, nullptr);
    EXPECT_EQ(r.status, SupervisedResult::Status::Cancelled);
}

TEST(SupervisorTest, MemoryRlimitTurnsRunawayIntoChildDeath)
{
    // 16 MiB of address space cannot hold the simulator; the child
    // dies (SIGSEGV from a failed allocation path or an abort from a
    // thrown bad_alloc) while the parent — this test — lives on.
    IsolationLimits limits;
    limits.memMb = 16;
    const SupervisedResult r = runIsolatedJob(
        childConfig(""), limits, nullptr, nullptr);
    EXPECT_NE(r.status, SupervisedResult::Status::Ok);
}

// --- durability plumbing --------------------------------------------

TEST(CheckedOfstreamTest, SyncReachesDiskAndReportsFailures)
{
    const std::string path = "sync_probe.txt";
    {
        CheckedOfstream os(path, "sync probe");
        ASSERT_TRUE(os.ok());
        os.stream() << "durable\n";
        EXPECT_TRUE(os.sync());
        // Unflushed-beyond-sync data still lands via finish().
        os.stream() << "tail\n";
        EXPECT_TRUE(os.finish());
    }
    EXPECT_EQ(slurp(path), "durable\ntail\n");
    std::remove(path.c_str());

    // A writer that never opened degrades: sync() is a safe no-op
    // failure, not a crash.
    const std::uint64_t errors_before = ioErrorCount().load();
    CheckedOfstream bad("no_such_dir/sync_probe.txt", "sync probe");
    EXPECT_FALSE(bad.ok());
    EXPECT_FALSE(bad.sync());
    EXPECT_GT(ioErrorCount().load(), errors_before);
}
