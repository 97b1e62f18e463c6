/**
 * @file
 * Job queue and job spec tests: priority/FIFO scheduling, budget
 * admission (a 64-core job waits while two 32-core jobs run),
 * cancellation of queued and running jobs, timeouts, and malformed
 * job-spec rejection with did-you-mean diagnostics.
 */

#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/run.hh"
#include "serve/job_queue.hh"
#include "serve/job_spec.hh"
#include "util/json_parse.hh"
#include "util/logging.hh"

using namespace slacksim;
using namespace slacksim::serve;

namespace {

JobSpec
makeSpec(std::uint32_t cores, std::uint32_t priority)
{
    JobSpec spec;
    spec.kernel = "fft";
    spec.cores = cores;
    spec.priority = priority;
    return spec;
}

/** makeSpec() with host_threads pinned to cores + 1: one worker per
 *  core on any host, so admission arithmetic is host-independent. */
JobSpec
makePinnedSpec(std::uint32_t cores, std::uint32_t priority)
{
    JobSpec spec = makeSpec(cores, priority);
    spec.hostThreadsOverride = cores + 1;
    return spec;
}

/** Parse a spec from JSON text; returns success, error via out. */
bool
parseSpec(const std::string &text, JobSpec *spec, std::string *error)
{
    return JobSpec::parse(json::parse(text), spec, error);
}

std::string
parseError(const std::string &text)
{
    JobSpec spec;
    std::string error;
    EXPECT_FALSE(parseSpec(text, &spec, &error)) << text;
    return error;
}

} // namespace

TEST(JobQueueTest, FifoWithinPriority)
{
    JobQueue queue;
    const std::uint64_t a = queue.submit(makeSpec(4, 3));
    const std::uint64_t b = queue.submit(makeSpec(4, 3));
    const std::uint64_t c = queue.submit(makeSpec(4, 3));

    EXPECT_EQ(queue.admitNext(100, 10000)->id, a);
    EXPECT_EQ(queue.admitNext(100, 10000)->id, b);
    EXPECT_EQ(queue.admitNext(100, 10000)->id, c);
    EXPECT_EQ(queue.admitNext(100, 10000), nullptr);
}

TEST(JobQueueTest, HigherPriorityJumpsTheLine)
{
    JobQueue queue;
    queue.submit(makeSpec(4, 3));
    const std::uint64_t urgent = queue.submit(makeSpec(4, 7));
    EXPECT_EQ(queue.admitNext(100, 10000)->id, urgent);
}

TEST(JobQueueTest, BigJobWaitsWhileTwoSmallJobsRun)
{
    // Host-thread budget 66: a 32-core parallel job pinned to one
    // worker per core needs 33 threads (manager + cores), so two of
    // them exactly fill the budget while a 64-core job (65 threads)
    // must wait for both to retire.
    JobQueue queue;
    const std::uint64_t small1 = queue.submit(makePinnedSpec(32, 3));
    const std::uint64_t small2 = queue.submit(makePinnedSpec(32, 3));
    const std::uint64_t big = queue.submit(makePinnedSpec(64, 3));

    std::uint32_t free_threads = 66;
    Job *j1 = queue.admitNext(free_threads, 1u << 20);
    ASSERT_NE(j1, nullptr);
    EXPECT_EQ(j1->id, small1);
    free_threads -= j1->spec.hostThreads();

    Job *j2 = queue.admitNext(free_threads, 1u << 20);
    ASSERT_NE(j2, nullptr);
    EXPECT_EQ(j2->id, small2);
    free_threads -= j2->spec.hostThreads();

    // 0 threads left: the 64-core job cannot start.
    EXPECT_EQ(queue.admitNext(free_threads, 1u << 20), nullptr);

    queue.markFinished(small1, JobState::Done);
    free_threads += j1->spec.hostThreads();
    // 33 free: still not enough for 65.
    EXPECT_EQ(queue.admitNext(free_threads, 1u << 20), nullptr);

    queue.markFinished(small2, JobState::Done);
    free_threads += j2->spec.hostThreads();
    Job *j3 = queue.admitNext(free_threads, 1u << 20);
    ASSERT_NE(j3, nullptr);
    EXPECT_EQ(j3->id, big);
}

TEST(JobQueueTest, SmallJobBackfillsPastBigJob)
{
    JobQueue queue;
    queue.submit(makePinnedSpec(64, 3)); // 65 threads, does not fit
    const std::uint64_t small = queue.submit(makePinnedSpec(8, 3));
    Job *job = queue.admitNext(33, 1u << 20);
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->id, small);
}

TEST(JobQueueTest, MemoryBudgetGatesAdmission)
{
    JobQueue queue;
    JobSpec hungry = makeSpec(4, 3);
    hungry.memMb = 4096;
    queue.submit(hungry);
    EXPECT_EQ(queue.admitNext(100, 1024), nullptr);
    EXPECT_NE(queue.admitNext(100, 8192), nullptr);
}

TEST(JobQueueTest, CancelQueuedJobIsImmediatelyTerminal)
{
    JobQueue queue;
    const std::uint64_t id = queue.submit(makeSpec(4, 3));
    std::string error;
    EXPECT_TRUE(queue.requestCancel(id, &error));
    EXPECT_EQ(queue.snapshot(id).front().state, JobState::Cancelled);
    // The scheduler must never admit it.
    EXPECT_EQ(queue.admitNext(100, 10000), nullptr);
    // A second cancel reports the terminal state.
    EXPECT_FALSE(queue.requestCancel(id, &error));
    EXPECT_NE(error.find("cancelled"), std::string::npos);
}

TEST(JobQueueTest, CancelRunningJobFiresItsToken)
{
    JobQueue queue;
    const std::uint64_t id = queue.submit(makeSpec(4, 3));
    Job *job = queue.admitNext(100, 10000);
    ASSERT_NE(job, nullptr);
    EXPECT_FALSE(job->cancel->cancelled());

    std::string error;
    EXPECT_TRUE(queue.requestCancel(id, &error));
    EXPECT_TRUE(job->cancel->cancelled());
    // Still running until the engine hands back its partial result.
    EXPECT_EQ(queue.snapshot(id).front().state, JobState::Running);
    queue.markFinished(id, JobState::Cancelled);
    EXPECT_EQ(queue.snapshot(id).front().state, JobState::Cancelled);
}

TEST(JobQueueTest, DeadlineFiresTokenAndMarksTimeout)
{
    JobQueue queue;
    JobSpec spec = makeSpec(4, 3);
    spec.timeoutMs = 1;
    const std::uint64_t id = queue.submit(spec);
    Job *job = queue.admitNext(100, 10000);
    ASSERT_NE(job, nullptr);

    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(queue.checkDeadlines(), 1u);
    EXPECT_TRUE(job->cancel->cancelled());
    // Firing is one-shot.
    EXPECT_EQ(queue.checkDeadlines(), 0u);

    // The engine reports "cancelled"; the queue knows it was the
    // deadline and upgrades the terminal state.
    queue.markFinished(id, JobState::Cancelled);
    EXPECT_EQ(queue.snapshot(id).front().state, JobState::TimedOut);
}

TEST(JobQueueTest, ShutdownHelpersSweepTheQueue)
{
    JobQueue queue;
    queue.submit(makeSpec(4, 3));
    const std::uint64_t running = queue.submit(makeSpec(4, 5));
    Job *job = queue.admitNext(100, 10000);
    ASSERT_EQ(job->id, running);

    queue.cancelQueued();
    queue.cancelRunning();
    EXPECT_TRUE(job->cancel->cancelled());
    queue.markFinished(running, JobState::Cancelled);
    EXPECT_TRUE(queue.idle());

    const QueueStats s = queue.stats();
    EXPECT_EQ(s.submitted, 2u);
    EXPECT_EQ(s.cancelled, 2u);
}

// ---- job-spec validation --------------------------------------------

TEST(JobSpecTest, ParsesFullSpec)
{
    JobSpec spec;
    std::string error;
    ASSERT_TRUE(parseSpec(
        R"({"version": "slacksim.job.v1", "name": "big", "kernel": "lu",
            "cores": 16, "scheme": "quantum", "quantum": 32,
            "seed": 7, "max_uops": 1000, "priority": 6,
            "host_threads": 17, "timeout_ms": 5000,
            "fault_spec": "io-fail@write:1"})",
        &spec, &error))
        << error;
    EXPECT_EQ(spec.kernel, "lu");
    EXPECT_EQ(spec.cores, 16u);
    EXPECT_EQ(spec.scheme, "quantum");
    EXPECT_EQ(spec.quantum, 32u);
    EXPECT_EQ(spec.priority, 6u);
    EXPECT_EQ(spec.hostThreads(), 17u);

    // The resulting config survives the engine's fatal validator.
    spec.toConfig().validate();
}

TEST(JobSpecTest, CycleByCycleReservesOnlyTheManager)
{
    // A CC run launches no workers on any topology, so admission
    // reserves the manager's thread alone, pinned or auto-sized.
    for (const char *extra : {"", R"(, "host_threads": 9)"}) {
        JobSpec spec;
        std::string error;
        ASSERT_TRUE(parseSpec(
            std::string(R"({"kernel": "lu", "cores": 16, "scheme": "cc")") +
                extra + "}",
            &spec, &error))
            << error;
        EXPECT_EQ(spec.hostThreads(), 1u) << extra;
    }
}

TEST(JobSpecTest, DefaultSpecWorkersFollowTheHost)
{
    // The default spec (8 cores, bounded, automatic host threads)
    // asks for hardware - 1 workers, at most one per core, and runs
    // one per equal span of cores: at 8 CPUs, 7 asked make spans of
    // 2, so 4 run.
    JobSpec spec;
    std::string error;
    ASSERT_TRUE(parseSpec(R"({"kernel": "fft"})", &spec, &error))
        << error;
    const SimConfig config = spec.toConfig();
    const std::pair<unsigned, std::uint32_t> expected[] = {
        {0, 0}, {1, 0}, {4, 3}, {8, 4}, {9, 8}, {16, 8}};
    for (const auto &[hardware, workers] : expected)
        EXPECT_EQ(engineWorkers(config, hardware), workers) << hardware;
}

TEST(JobSpecTest, HostThreadsMatchWhatTheRunUses)
{
    // Admission reserves exactly the threads the run occupies, for
    // every core count, scheme and host_threads setting a spec may
    // carry (a serial spec takes no host_threads).
    setQuietLogging(true);
    const char *schemes[] = {
        R"("scheme": "cc")", R"("scheme": "quantum")",
        R"("scheme": "bounded")",
        R"("scheme": "adaptive", "checkpoint": "speculative",
           "checkpoint_interval": 500)"};
    for (const std::uint32_t cores : {1u, 2u, 4u, 8u}) {
        std::vector<std::string> hosts = {R"("parallel_host": false)",
                                          R"("parallel_host": true)"};
        for (std::uint32_t threads = 1; threads <= cores + 1; ++threads)
            hosts.push_back(R"("host_threads": )" +
                            std::to_string(threads));
        for (const char *scheme : schemes) {
            for (const std::string &host : hosts) {
                const std::string text =
                    R"({"kernel": "uniform", "max_uops": 2000, )"
                    R"("cores": )" +
                    std::to_string(cores) + ", " + scheme + ", " + host +
                    "}";
                JobSpec spec;
                std::string error;
                ASSERT_TRUE(parseSpec(text, &spec, &error))
                    << error << ": " << text;
                const RunResult r = runSimulation(spec.toConfig());
                EXPECT_EQ(spec.hostThreads(), r.host.hostThreadsUsed)
                    << text;
            }
        }
    }
}

TEST(JobSpecTest, UnknownKeyGetsDidYouMean)
{
    const std::string error =
        parseError(R"({"kernal": "fft", "kernel": "fft"})");
    EXPECT_NE(error.find("kernal"), std::string::npos);
    EXPECT_NE(error.find("did you mean 'kernel'"), std::string::npos);
}

TEST(JobSpecTest, UnknownKernelGetsDidYouMean)
{
    const std::string error = parseError(R"({"kernel": "fftt"})");
    EXPECT_NE(error.find("did you mean 'fft'"), std::string::npos);
}

TEST(JobSpecTest, UnknownSchemeGetsDidYouMean)
{
    const std::string error =
        parseError(R"({"kernel": "fft", "scheme": "buonded"})");
    EXPECT_NE(error.find("did you mean 'bounded'"),
              std::string::npos);
}

TEST(JobSpecTest, BadFaultKindGetsDidYouMean)
{
    const std::string error = parseError(
        R"({"kernel": "fft", "fault_spec": "io-fial@write:1"})");
    EXPECT_NE(error.find("did you mean 'io-fail'"),
              std::string::npos);
}

TEST(JobSpecTest, RejectsNumbersOutsideUint64BeforeCasting)
{
    // 1e20 lies past 2^64 and -1 below 0: neither has a uint64 value,
    // so each is rejected by key instead of cast.
    for (const char *seed : {"1e20", "-1", "18446744073709551616", "0.5"}) {
        const std::string error = parseError(
            std::string(R"({"kernel": "fft", "seed": )") + seed + "}");
        EXPECT_NE(error.find("'seed'"), std::string::npos)
            << seed << ": " << error;
    }
    JobSpec spec;
    std::string error;
    ASSERT_TRUE(parseSpec(
        R"({"kernel": "fft", "seed": 18446744073709549568})", &spec,
        &error))
        << error;
    EXPECT_EQ(spec.seed, 18446744073709549568ull);
}

TEST(JobSpecTest, RejectsOutOfRangeValues)
{
    EXPECT_NE(parseError(R"({"kernel": "fft", "cores": 0})")
                  .find("cores"),
              std::string::npos);
    EXPECT_NE(parseError(R"({"kernel": "fft", "cores": 65})")
                  .find("cores"),
              std::string::npos);
    EXPECT_NE(parseError(R"({"kernel": "fft", "priority": 9})")
                  .find("priority"),
              std::string::npos);
    EXPECT_NE(parseError(R"({"kernel": "fft", "cores": -4})")
                  .find("integer"),
              std::string::npos);
    EXPECT_NE(
        parseError(
            R"({"kernel": "fft", "checkpoint": "measure",
                "checkpoint_interval": 10})")
            .find("checkpoint_interval"),
        std::string::npos);
}

TEST(JobSpecTest, RejectsWrongVersionAndShape)
{
    EXPECT_NE(parseError(R"({"kernel": "fft", "version": "v2"})")
                  .find("version"),
              std::string::npos);
    EXPECT_NE(parseError(R"({})").find("kernel"), std::string::npos);

    JobSpec spec;
    std::string error;
    EXPECT_FALSE(JobSpec::parse(json::parse("[1, 2]"), &spec, &error));
    EXPECT_NE(error.find("object"), std::string::npos);
}

TEST(JobSpecTest, MalformedFaultSpecShapeIsRejected)
{
    EXPECT_NE(parseError(
                  R"({"kernel": "fft", "fault_spec": "io-fail"})")
                  .find("expected <kind>@<site>:<trigger>"),
              std::string::npos);
    EXPECT_NE(parseError(R"({"kernel": "fft",
                             "fault_spec": "io-fail@write:x"})")
                  .find("decimal"),
              std::string::npos);
}

TEST(JobSpecTest, RoundTripsThroughJson)
{
    JobSpec spec = makeSpec(12, 5);
    spec.name = "roundtrip";
    spec.scheme = "adaptive";
    spec.faultSpec = "worker-stall@cycle:1000:2";

    JobSpec decoded;
    std::string error;
    ASSERT_TRUE(JobSpec::parse(json::parse(spec.toJson()), &decoded,
                               &error))
        << error;
    EXPECT_EQ(decoded.name, "roundtrip");
    EXPECT_EQ(decoded.cores, 12u);
    EXPECT_EQ(decoded.priority, 5u);
    EXPECT_EQ(decoded.scheme, "adaptive");
    EXPECT_EQ(decoded.faultSpec, spec.faultSpec);
}

TEST(JobSpecTest, ReadsSpecsJournaledWithClusters)
{
    // Exactly what toJson() wrote while relay threads existed. Every
    // journaled `submitted` event embeds it, and --recover drops any
    // spec that no longer parses.
    const std::string journaled =
        R"({"version":"slacksim.job.v1","name":"job-7","kernel":"fft",)"
        R"("cores":8,"scheme":"bounded","slack":10,"quantum":8,)"
        R"("seed":42,"max_uops":0,"warmup_uops":0,"checkpoint":"off",)"
        R"("checkpoint_interval":50000,"parallel_host":true,)"
        R"("host_threads":1,"clusters":0,"priority":3,"timeout_ms":0,)"
        R"("fault_seed":1,"max_attempts":3,)"
        R"("trace_id":"4bf92f3577b34da6a3ce929d0e0e4736"})";
    JobSpec spec;
    std::string error;
    ASSERT_TRUE(parseSpec(journaled, &spec, &error)) << error;
    EXPECT_EQ(spec.name, "job-7");
    EXPECT_EQ(spec.hostThreads(), 1u);
    EXPECT_EQ(spec.traceId, "4bf92f3577b34da6a3ce929d0e0e4736");

    // The key is no longer written; everything else round-trips.
    std::string rewritten = journaled;
    const std::string clusters = R"("clusters":0,)";
    rewritten.erase(rewritten.find(clusters), clusters.size());
    EXPECT_EQ(spec.toJson(), rewritten);
}

TEST(JobSpecTest, RelayClustersAreRejected)
{
    const std::string error =
        parseError(R"({"kernel": "fft", "clusters": 2})");
    EXPECT_NE(error.find("clusters"), std::string::npos) << error;
}
