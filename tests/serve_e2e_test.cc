/**
 * @file
 * End-to-end job server tests: a real daemon (in-process) behind a
 * real Unix socket, driven through the Client protocol layer — mixed
 * concurrent jobs under the thread budget, bit-identical results vs
 * standalone runs, mid-run cancellation with a partial report, spec
 * rejection over the wire, and graceful drain shutdown.
 */

#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

#include <gtest/gtest.h>

#include "core/run.hh"
#include "scratch_path.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "util/json_parse.hh"

using namespace slacksim;
using namespace slacksim::serve;

namespace {

/** One in-process daemon per test, torn down by drain shutdown.
 *  @p tweak edits the options (isolation mode, recovery) before the
 *  server starts. */
class ServerHarness
{
  public:
    explicit ServerHarness(
        const std::string &tag, std::uint32_t threads,
        const std::function<void(Server::Options &)> &tweak = {})
    {
        opts_.socketPath = test::scratchPath(tag + ".sock");
        opts_.outRoot = test::scratchPath(tag + "-out");
        opts_.threadBudget = threads;
        opts_.drainDeadlineMs = 120000;
        if (tweak)
            tweak(opts_);
        server_ = std::make_unique<Server>(opts_);
        EXPECT_TRUE(server_->start());
        runner_ = std::thread([this] { server_->run(); });
    }

    ~ServerHarness()
    {
        if (runner_.joinable()) {
            std::string error;
            Client(opts_.socketPath).shutdown(true, &error);
            runner_.join();
        }
    }

    Server &server() { return *server_; }
    const std::string &socket() const { return opts_.socketPath; }
    const std::string &outRoot() const { return opts_.outRoot; }

  private:
    Server::Options opts_;
    std::unique_ptr<Server> server_;
    std::thread runner_;
};

std::string
specJson(const std::string &kernel, unsigned cores,
         const std::string &extra = "")
{
    std::ostringstream os;
    os << "{\"version\": \"slacksim.job.v1\", \"kernel\": \"" << kernel
       << "\", \"cores\": " << cores
       << ", \"scheme\": \"quantum\", \"quantum\": 16"
       << ", \"max_uops\": 80000";
    if (!extra.empty())
        os << ", " << extra;
    os << "}";
    return os.str();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Poll the daemon until every job is terminal (or 60s pass). */
bool
waitAllTerminal(Client &client)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(60);
    std::string error;
    while (std::chrono::steady_clock::now() < deadline) {
        json::Value reply;
        if (!client.stats(&reply, &error))
            return false;
        const json::Value &queue = reply.at("queue");
        if (queue.at("queued").asUint() == 0 &&
            queue.at("running").asUint() == 0) {
            return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
    return false;
}

} // namespace

TEST(ServeE2ETest, EightMixedJobsUnderBudgetAllComplete)
{
    // 16 pool threads; each 4-core parallel job reserves 5, so at
    // most three run concurrently and the rest queue behind them.
    ServerHarness harness("serve_e2e_mixed", 16);
    Client client(harness.socket());
    ASSERT_TRUE(client.valid());

    const std::vector<std::string> kernels = {
        "fft", "radix", "pingpong", "stream",
        "falseshare", "uniform", "syncstorm", "fft"};
    std::string error;
    std::vector<std::uint64_t> ids;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        // One job carries a fault spec (host-timing perturbation
        // only) and one runs on the serial engine. The parallel jobs
        // pin host_threads so the task accounting below is exact on
        // any machine (auto topology sizes from the host CPU count).
        std::string extra = "\"seed\": " + std::to_string(100 + i);
        if (i == 2)
            extra += ", \"fault_spec\": \"worker-stall@cycle:500:2\"";
        if (i == 5)
            extra += ", \"parallel_host\": false";
        else
            extra += ", \"host_threads\": 5";
        const std::uint64_t id =
            client.submit(specJson(kernels[i], 4, extra), &error);
        ASSERT_NE(id, 0u) << error;
        ids.push_back(id);
    }

    ASSERT_TRUE(waitAllTerminal(client));

    json::Value reply;
    ASSERT_TRUE(client.stats(&reply, &error)) << error;
    EXPECT_EQ(reply.at("queue").at("done").asUint(), kernels.size());
    EXPECT_EQ(reply.at("queue").at("failed").asUint(), 0u);

    // The tentpole acceptance proof: every job ran on the persistent
    // pool — threads were reused, none spawned per run.
    const json::Value &pool = reply.at("pool");
    EXPECT_EQ(pool.at("threads_spawned").asUint(), 16u);
    EXPECT_EQ(pool.at("overflow_spawns").asUint(), 0u);
    // 7 parallel jobs x 5 tasks + 1 serial job x 1 task.
    EXPECT_EQ(pool.at("tasks_run").asUint(), 36u);

    // Every job produced a schema-valid report in its own directory.
    for (const std::uint64_t id : ids) {
        const std::string report = slurp(
            harness.outRoot() + "/job-" + std::to_string(id) +
            "/report.json");
        ASSERT_FALSE(report.empty()) << "job " << id;
        const json::Value doc = json::parse(report);
        EXPECT_EQ(doc.at("schema").asString(),
                  "slacksim.run_report.v5");
        EXPECT_EQ(doc.at("status").asString(), "ok");
    }
}

TEST(ServeE2ETest, DaemonResultsBitIdenticalToStandaloneRun)
{
    ServerHarness harness("serve_e2e_ident", 8);
    Client client(harness.socket());
    ASSERT_TRUE(client.valid());

    // Cycle-by-cycle service: the one scheme whose simulated cycle
    // count is bit-deterministic on every topology (it runs on the
    // manager alone), so daemon and standalone runs are comparable
    // exactly (threaded slack runs keep uop counts stable but their
    // cycle counts shift with host timing).
    std::string error;
    const std::string spec_json =
        R"({"version": "slacksim.job.v1", "kernel": "radix",
            "cores": 4, "scheme": "cc", "max_uops": 30000,
            "seed": 1234})";
    const std::uint64_t id = client.submit(spec_json, &error);
    ASSERT_NE(id, 0u) << error;
    ASSERT_TRUE(waitAllTerminal(client));

    json::Value reply;
    ASSERT_TRUE(client.status(id, &reply, &error)) << error;
    const json::Value &job = reply.at("jobs").item(0);
    ASSERT_EQ(job.at("state").asString(), "done");

    // Same spec, standalone path: spawn/join threads, no pool, no
    // daemon — committed work and simulated time must match exactly.
    JobSpec spec;
    ASSERT_TRUE(
        JobSpec::parse(json::parse(spec_json), &spec, &error))
        << error;
    const RunResult solo = runSimulation(spec.toConfig());
    EXPECT_EQ(job.at("committed_uops").asUint(), solo.committedUops);
    EXPECT_EQ(job.at("simulated_cycles").asUint(), solo.execCycles);
}

TEST(ServeE2ETest, DefaultBudgetAdmitsTheDefaultSpec)
{
    // Budget 0 sizes the pool from the host (at least 8 threads). The
    // default spec (8 cores, bounded, automatic host threads) reserves
    // exactly what its engine launches here, so it fits that pool on
    // any host and reports the reservation as host_threads_used.
    ServerHarness harness("serve_e2e_default", 0);
    Client client(harness.socket());
    ASSERT_TRUE(client.valid());

    std::string error;
    const std::uint64_t id = client.submit(
        R"({"kernel": "fft", "max_uops": 20000})", &error);
    ASSERT_NE(id, 0u) << error;
    ASSERT_TRUE(waitAllTerminal(client));

    json::Value reply;
    ASSERT_TRUE(client.status(id, &reply, &error)) << error;
    const json::Value &job = reply.at("jobs").item(0);
    ASSERT_EQ(job.at("state").asString(), "done");
    const std::string report =
        slurp(harness.outRoot() + "/job-" + std::to_string(id) +
              "/report.json");
    ASSERT_FALSE(report.empty());
    const json::Value doc = json::parse(report);
    EXPECT_EQ(doc.at("result").at("host").at("host_threads_used").asUint(),
              job.at("host_threads").asUint());
    EXPECT_LE(job.at("host_threads").asUint(),
              harness.server().threadBudget());
}

TEST(ServeE2ETest, CancelMidRunYieldsPartialCancelledReport)
{
    ServerHarness harness("serve_e2e_cancel", 16);
    Client client(harness.socket());
    ASSERT_TRUE(client.valid());

    // Uncapped lu runs for seconds — a wide window to cancel into.
    std::string error;
    const std::uint64_t id = client.submit(
        R"({"kernel": "lu", "cores": 8, "scheme": "bounded",
            "slack": 16})",
        &error);
    ASSERT_NE(id, 0u) << error;

    // Wait until it is actually running, then cancel.
    for (int i = 0; i < 500; ++i) {
        json::Value reply;
        ASSERT_TRUE(client.status(id, &reply, &error)) << error;
        const std::string state =
            reply.at("jobs").item(0).at("state").asString();
        ASSERT_NE(state, "done") << "job finished before cancel";
        if (state == "running")
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(client.cancel(id, &error)) << error;
    ASSERT_TRUE(waitAllTerminal(client));

    json::Value reply;
    ASSERT_TRUE(client.status(id, &reply, &error)) << error;
    EXPECT_EQ(reply.at("jobs").item(0).at("state").asString(),
              "cancelled");

    // The partial run still flushed a report, marked cancelled.
    const std::string report = slurp(harness.outRoot() + "/job-" +
                                     std::to_string(id) +
                                     "/report.json");
    ASSERT_FALSE(report.empty());
    EXPECT_EQ(json::parse(report).at("status").asString(),
              "cancelled");
}

TEST(ServeE2ETest, WatchStreamsStatesAndArtifacts)
{
    ServerHarness harness("serve_e2e_watch", 8);
    Client submit_client(harness.socket());
    ASSERT_TRUE(submit_client.valid());

    std::string error;
    const std::uint64_t id = submit_client.submit(
        specJson("fft", 4, "\"seed\": 5"), &error);
    ASSERT_NE(id, 0u) << error;

    // Watch on a second connection (watch consumes its connection).
    Client watcher(harness.socket());
    ASSERT_TRUE(watcher.valid());
    std::vector<std::string> states;
    bool saw_report = false, saw_metrics = false;
    std::string end_state;
    ASSERT_TRUE(watcher.watch(
        id,
        [&](const json::Value &event) {
            const std::string &kind = event.at("event").asString();
            if (kind == "state")
                states.push_back(event.at("state").asString());
            else if (kind == "report") {
                saw_report = true;
                // The streamed report is the real artifact.
                EXPECT_EQ(json::parse(event.at("json").asString())
                              .at("status")
                              .asString(),
                          "ok");
            } else if (kind == "metrics")
                saw_metrics = true;
            else if (kind == "end")
                end_state = event.at("state").asString();
        },
        &error))
        << error;

    EXPECT_EQ(end_state, "done");
    EXPECT_TRUE(saw_report);
    EXPECT_TRUE(saw_metrics);
    ASSERT_FALSE(states.empty());
    EXPECT_EQ(states.back(), "done");
}

TEST(ServeE2ETest, ProtocolRejectsBadInput)
{
    ServerHarness harness("serve_e2e_reject", 8);
    Client client(harness.socket());
    ASSERT_TRUE(client.valid());

    std::string error;
    // Typoed kernel: rejected with a did-you-mean, nothing enqueued.
    EXPECT_EQ(client.submit(R"({"kernel": "fftt"})", &error), 0u);
    EXPECT_NE(error.find("did you mean 'fft'"), std::string::npos);

    // A job wider than the whole budget can never run: refused at
    // submit rather than queued forever. host_threads is pinned so
    // the job needs 65 threads on any host.
    EXPECT_EQ(client.submit(
                  R"({"kernel": "fft", "cores": 64, "host_threads": 65})",
                  &error),
              0u);
    EXPECT_NE(error.find("budget"), std::string::npos);

    // Unknown op with a hint; unknown job id.
    json::Value reply;
    EXPECT_FALSE(
        client.request("{\"op\": \"sumbit\"}", &reply, &error));
    EXPECT_NE(error.find("did you mean 'submit'"), std::string::npos);
    EXPECT_FALSE(client.cancel(999, &error));
    EXPECT_NE(error.find("no such job"), std::string::npos);

    // Garbage frame: a readable error, and the connection survives
    // for the next request.
    EXPECT_FALSE(client.request("not json at all", &reply, &error));
    EXPECT_NE(error.find("bad frame"), std::string::npos);
    EXPECT_TRUE(client.stats(&reply, &error)) << error;

    json::Value stats_reply;
    ASSERT_TRUE(client.stats(&stats_reply, &error));
    EXPECT_EQ(stats_reply.at("queue").at("submitted").asUint(), 0u);
}

TEST(ServeE2ETest, TelemetryMetricsEventsAndCorrelation)
{
    const std::string out_root = test::scratchPath("serve_e2e_tel-out");
    std::vector<std::uint64_t> ids;
    {
        ServerHarness harness("serve_e2e_tel", 16);
        Client client(harness.socket());
        ASSERT_TRUE(client.valid());

        std::string error;
        for (int i = 0; i < 3; ++i) {
            // The first job also exercises the per-job trace and
            // profile sinks (correlation-named artifacts).
            std::string extra = "\"seed\": " + std::to_string(7 + i) +
                                ", \"host_threads\": 5";
            if (i == 0)
                extra += ", \"trace\": true, \"profile\": true";
            const std::uint64_t id =
                client.submit(specJson("fft", 4, extra), &error);
            ASSERT_NE(id, 0u) << error;
            ids.push_back(id);
        }

        // Mid-batch scrape: the exposition parses and carries the
        // submission counter even while jobs are still in flight.
        std::string text;
        ASSERT_TRUE(client.metricsText(&text, &error)) << error;
        EXPECT_NE(text.find("# TYPE slacksim_jobs_submitted_total "
                            "counter"),
                  std::string::npos);
        EXPECT_NE(text.find("slacksim_jobs_submitted_total 3"),
                  std::string::npos);
        EXPECT_NE(text.find("slacksim_queue_wait_ms_bucket{le=\"+Inf"
                            "\"}"),
                  std::string::npos);

        ASSERT_TRUE(waitAllTerminal(client));

        // Coherence: every submitted job reached exactly one terminal
        // status, and both latency histograms saw every job.
        json::Value stats;
        ASSERT_TRUE(client.stats(&stats, &error)) << error;
        const json::Value &tel = stats.at("telemetry");
        EXPECT_EQ(tel.at("jobs_submitted").asUint(), 3u);
        EXPECT_EQ(tel.at("jobs_terminal").asUint(), 3u);
        EXPECT_EQ(tel.at("queue_wait_ms").at("count").asUint(), 3u);
        EXPECT_EQ(tel.at("run_duration_ms").at("count").asUint(), 3u);
        EXPECT_GT(tel.at("events_recorded").asUint(), 0u);

        // End-to-end correlation: the run report carries the job id
        // and the build stamp; the metrics CSV schema line and the
        // trace/profile filenames carry the same id.
        for (const std::uint64_t id : ids) {
            const std::string tag = "job-" + std::to_string(id);
            const std::string dir = harness.outRoot() + "/" + tag;
            const json::Value report =
                json::parse(slurp(dir + "/report.json"));
            EXPECT_EQ(report.at("job_id").asString(), tag);
            EXPECT_EQ(report.at("forensics").at("job_id").asString(),
                      tag);
            EXPECT_FALSE(report.at("generator")
                             .at("build")
                             .at("git")
                             .asString()
                             .empty());
            const std::string csv = slurp(dir + "/metrics.csv");
            EXPECT_NE(csv.find("job_id=" + tag), std::string::npos);
        }
        const std::string tag0 = "job-" + std::to_string(ids[0]);
        EXPECT_FALSE(slurp(harness.outRoot() + "/" + tag0 + "/" +
                           tag0 + ".trace.json")
                         .empty());
        EXPECT_FALSE(slurp(harness.outRoot() + "/" + tag0 + "/" +
                           tag0 + ".profile.folded")
                         .empty());
    }
    // The harness destructor drained and sealed the event log; the
    // lifecycle of every job must now read in order.
    const std::string events = slurp(out_root + "/server_events.jsonl");
    ASSERT_FALSE(events.empty());
    std::istringstream is(events);
    std::string line;
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_EQ(json::parse(line).at("schema").asString(),
              "slacksim.server_events.v1");
    std::map<std::uint64_t, std::vector<std::string>> perJob;
    std::uint64_t last_seq = 0;
    while (std::getline(is, line)) {
        const json::Value ev = json::parse(line);
        EXPECT_EQ(ev.at("seq").asUint(), last_seq + 1);
        last_seq = ev.at("seq").asUint();
        perJob[ev.at("job").asUint()].push_back(
            ev.at("event").asString());
    }
    for (const std::uint64_t id : ids) {
        ASSERT_TRUE(perJob.count(id)) << "job " << id;
        // Heartbeats may interleave; the five lifecycle transitions
        // must appear in order.
        const std::vector<std::string> want = {
            "submitted", "validated", "admitted", "started",
            "completed"};
        std::size_t next = 0;
        for (const std::string &name : perJob[id]) {
            if (next < want.size() && name == want[next])
                ++next;
        }
        EXPECT_EQ(next, want.size()) << "job " << id;
    }
}

TEST(ServeE2ETest, IsolatedCrashLeavesDaemonAndSiblingsRunning)
{
    // The tentpole acceptance proof: eight process-isolated jobs, one
    // of which segfaults mid-run. The other seven must complete, the
    // daemon must stay up, and the crash must land as exactly one
    // `crashed` terminal state with a stub crash report.
    ServerHarness harness("serve_e2e_crash", 16,
                          [](Server::Options &o) {
                              o.defaultIsolation = "process";
                          });
    Client client(harness.socket());
    ASSERT_TRUE(client.valid());

    std::string error;
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 8; ++i) {
        std::string extra = "\"seed\": " + std::to_string(200 + i) +
                            ", \"host_threads\": 5" +
                            ", \"max_attempts\": 1";
        // Job 3 of the batch dies by SIGSEGV deep inside engine code.
        if (i == 2)
            extra += ", \"fault_spec\": \"job-crash@cycle:2000\"";
        const std::uint64_t id =
            client.submit(specJson("fft", 4, extra), &error);
        ASSERT_NE(id, 0u) << error;
        ids.push_back(id);
    }

    ASSERT_TRUE(waitAllTerminal(client));

    // The daemon survived (this very request proves it) and kept the
    // books: 7 done, exactly 1 crashed, nothing failed.
    json::Value reply;
    ASSERT_TRUE(client.stats(&reply, &error)) << error;
    EXPECT_EQ(reply.at("queue").at("done").asUint(), 7u);
    EXPECT_EQ(reply.at("queue").at("crashed").asUint(), 1u);
    EXPECT_EQ(reply.at("queue").at("failed").asUint(), 0u);
    EXPECT_EQ(reply.at("telemetry").at("jobs_crashed").asUint(), 1u);

    // The crashed job reports its signal; the siblings their reports.
    ASSERT_TRUE(client.status(ids[2], &reply, &error)) << error;
    const json::Value &crashed = reply.at("jobs").item(0);
    EXPECT_EQ(crashed.at("state").asString(), "crashed");
    EXPECT_EQ(crashed.at("crash_signal").asString(), "SIGSEGV");
    const std::string stub =
        slurp(harness.outRoot() + "/job-" + std::to_string(ids[2]) +
              "/report.json");
    ASSERT_FALSE(stub.empty());
    const json::Value stub_doc = json::parse(stub);
    EXPECT_EQ(stub_doc.at("schema").asString(),
              "slacksim.crash_report.v1");
    EXPECT_EQ(stub_doc.at("signal_name").asString(), "SIGSEGV");
    for (std::size_t i = 0; i < ids.size(); ++i) {
        if (i == 2)
            continue;
        const std::string report =
            slurp(harness.outRoot() + "/job-" +
                  std::to_string(ids[i]) + "/report.json");
        ASSERT_FALSE(report.empty()) << "job " << ids[i];
        EXPECT_EQ(json::parse(report).at("status").asString(), "ok");
    }

    // The crash shows up in the Prometheus exposition by signal.
    std::string text;
    ASSERT_TRUE(client.metricsText(&text, &error)) << error;
    EXPECT_NE(text.find("slacksim_jobs_crashed_total{"
                        "signal=\"SIGSEGV\"} 1"),
              std::string::npos);
}

TEST(ServeE2ETest, CancelPastKillGraceLeavesStubReport)
{
    // A process-isolated job wedged in a worker stall cannot drain a
    // cancel: after kill_grace_ms the supervisor SIGKILLs it. The job
    // ends cancelled, and since the child wrote no run report the
    // daemon leaves the crash stub in its place.
    ServerHarness harness("serve_e2e_killgrace", 8,
                          [](Server::Options &o) {
                              o.defaultIsolation = "process";
                              o.killGraceMs = 200;
                          });
    Client client(harness.socket());
    ASSERT_TRUE(client.valid());

    std::string error;
    const std::uint64_t id = client.submit(
        specJson("fft", 4,
                 "\"host_threads\": 1, \"max_attempts\": 1, "
                 "\"fault_spec\": \"worker-stall@cycle:1:20000\""),
        &error);
    ASSERT_NE(id, 0u) << error;
    for (int i = 0; i < 500; ++i) {
        json::Value reply;
        ASSERT_TRUE(client.status(id, &reply, &error)) << error;
        if (reply.at("jobs").item(0).at("state").asString() == "running")
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    // The stall fires on the engine's second round; by now the child
    // sleeps in it, far from its next cancel poll.
    std::this_thread::sleep_for(std::chrono::milliseconds(1500));
    ASSERT_TRUE(client.cancel(id, &error)) << error;
    ASSERT_TRUE(waitAllTerminal(client));

    json::Value reply;
    ASSERT_TRUE(client.status(id, &reply, &error)) << error;
    EXPECT_EQ(reply.at("jobs").item(0).at("state").asString(),
              "cancelled");

    const std::string stub =
        slurp(harness.outRoot() + "/job-" + std::to_string(id) +
              "/report.json");
    ASSERT_FALSE(stub.empty());
    const json::Value stub_doc = json::parse(stub);
    EXPECT_EQ(stub_doc.at("schema").asString(),
              "slacksim.crash_report.v1");
    EXPECT_EQ(stub_doc.at("status").asString(), "cancelled");
    EXPECT_EQ(stub_doc.at("signal_name").asString(), "SIGKILL");
    EXPECT_EQ(stub_doc.at("reason").asString(),
              "killed after cancel grace expired");
    EXPECT_EQ(stub_doc.at("job_id").asString(),
              "job-" + std::to_string(id));
}

TEST(ServeE2ETest, WreckingFaultNeedsProcessIsolationAtSubmit)
{
    // On a daemon whose default is inline execution, a job-crash
    // spec that does not opt into process isolation is refused at
    // submit — accepting it would let one client kill the fleet.
    ServerHarness harness("serve_e2e_wreck", 8);
    Client client(harness.socket());
    ASSERT_TRUE(client.valid());

    std::string error;
    EXPECT_EQ(client.submit(
                  specJson("fft", 2,
                           "\"fault_spec\": \"job-crash@cycle:99\""),
                  &error),
              0u);
    EXPECT_NE(error.find("process"), std::string::npos);
}

TEST(ServeE2ETest, IdempotencyKeyDeduplicatesRetriedSubmit)
{
    ServerHarness harness("serve_e2e_idem", 8);
    Client client(harness.socket());
    ASSERT_TRUE(client.valid());

    // Same key twice — as a retrying client would after losing the
    // first reply — must map to ONE job, flagged as a duplicate.
    std::string error;
    bool duplicate = false;
    const std::string spec = specJson("fft", 2, "\"seed\": 77");
    const std::uint64_t first =
        client.submit(spec, &error, "retry-key-1", &duplicate);
    ASSERT_NE(first, 0u) << error;
    EXPECT_FALSE(duplicate);
    const std::uint64_t second =
        client.submit(spec, &error, "retry-key-1", &duplicate);
    EXPECT_EQ(second, first);
    EXPECT_TRUE(duplicate);
    // A different key is a different job.
    const std::uint64_t third =
        client.submit(spec, &error, "retry-key-2", &duplicate);
    EXPECT_NE(third, first);
    EXPECT_FALSE(duplicate);

    ASSERT_TRUE(waitAllTerminal(client));
    json::Value reply;
    ASSERT_TRUE(client.stats(&reply, &error)) << error;
    EXPECT_EQ(reply.at("queue").at("done").asUint(), 2u);
}

TEST(ServeE2ETest, RecoverReplaysJournaledJobs)
{
    // Forge the journal a crashed daemon would have left behind: one
    // job that never started (re-admit as-is) and one that was
    // running at crash time (retry, attempt+1). Then boot a server
    // with --recover semantics over that outRoot.
    const std::string out_root =
        test::scratchPath("serve_e2e_recover-out");
    ::mkdir(out_root.c_str(), 0775);
    const std::string spec =
        "{\"kernel\": \"fft\", \"cores\": 2, \"scheme\": "
        "\"quantum\", \"quantum\": 16, \"max_uops\": 40000, "
        "\"host_threads\": 3, \"seed\": 11}";
    {
        std::ofstream j(out_root + "/server_events.jsonl",
                        std::ios::trunc);
        j << "{\"schema\": \"slacksim.server_events.v1\"}\n"
          << "{\"seq\": 1, \"event\": \"submitted\", \"job\": 1, "
             "\"attempt\": 1, \"max_attempts\": 3, "
             "\"idempotency_key\": \"recover-a\", \"spec\": "
          << spec << "}\n"
          << "{\"seq\": 2, \"event\": \"submitted\", \"job\": 2, "
             "\"attempt\": 1, \"max_attempts\": 3, "
             "\"idempotency_key\": \"recover-b\", \"spec\": "
          << spec << "}\n"
          << "{\"seq\": 3, \"event\": \"started\", \"job\": 2}\n";
    }

    ServerHarness harness("serve_e2e_recover", 8,
                          [](Server::Options &o) {
                              o.recover = true;
                          });
    Client client(harness.socket());
    ASSERT_TRUE(client.valid());

    ASSERT_TRUE(waitAllTerminal(client));
    std::string error;
    json::Value reply;
    ASSERT_TRUE(client.stats(&reply, &error)) << error;
    EXPECT_EQ(reply.at("queue").at("done").asUint(), 2u);
    const json::Value &tel = reply.at("telemetry");
    EXPECT_EQ(tel.at("jobs_recovered").asUint(), 2u);
    EXPECT_EQ(tel.at("jobs_retried").asUint(), 1u);

    // The consumed generation was rotated aside, and the fresh log
    // records the recovery decisions.
    EXPECT_FALSE(
        slurp(out_root + "/server_events.jsonl.1").empty());
    const std::string events =
        slurp(out_root + "/server_events.jsonl");
    EXPECT_NE(events.find("\"recovered\""), std::string::npos);
    EXPECT_NE(events.find("\"retried\""), std::string::npos);

    // An idempotent resubmit of the recovered job still dedups after
    // the restart — the key survived the journal round-trip.
    bool duplicate = false;
    const std::uint64_t id =
        client.submit(spec, &error, "recover-a", &duplicate);
    ASSERT_NE(id, 0u) << error;
    EXPECT_TRUE(duplicate);
}

TEST(ServeE2ETest, WatchResumesAcrossFromSeq)
{
    // from_seq filtering: a watcher that reports the seq it already
    // saw must not receive those transitions again (the resume path
    // Client::watch uses after a reconnect).
    ServerHarness harness("serve_e2e_seq", 8);
    Client submit_client(harness.socket());
    ASSERT_TRUE(submit_client.valid());

    std::string error;
    const std::uint64_t id = submit_client.submit(
        specJson("fft", 2, "\"seed\": 3, \"host_threads\": 3"),
        &error);
    ASSERT_NE(id, 0u) << error;
    ASSERT_TRUE(waitAllTerminal(submit_client));

    // Watching the finished job emits its current state once, with
    // the job's final seq.
    std::vector<std::uint64_t> seqs;
    std::string end_state;
    Client w1(harness.socket());
    ASSERT_TRUE(w1.watch(
        id,
        [&](const json::Value &ev) {
            if (ev.at("event").asString() == "state")
                seqs.push_back(ev.at("seq").asUint());
            else if (ev.at("event").asString() == "end")
                end_state = ev.at("state").asString();
        },
        &error))
        << error;
    ASSERT_EQ(seqs.size(), 1u);
    EXPECT_EQ(end_state, "done");
    const std::uint64_t final_seq = seqs.front();
    EXPECT_GE(final_seq, 3u); // submit=1, admit=2, retire=3

    // A resumer that already saw final_seq gets NO state replay —
    // just the end frame. One that saw final_seq-1 gets exactly the
    // missed transition. Speak the wire directly so the from_seq
    // under test is explicit.
    const auto countStates = [&](std::uint64_t from_seq) {
        UdsConn raw = UdsConn::connect(harness.socket());
        EXPECT_TRUE(raw.valid());
        EXPECT_TRUE(raw.sendLine(
            "{\"op\": \"watch\", \"id\": " + std::to_string(id) +
            ", \"from_seq\": " + std::to_string(from_seq) + "}"));
        std::size_t states = 0;
        while (true) {
            std::string line;
            if (raw.recvLine(line, 30000) != UdsConn::Recv::Line)
                break;
            const json::Value ev = json::parse(line);
            EXPECT_TRUE(ev.at("ok").asBool());
            if (ev.at("event").asString() == "state") {
                ++states;
                EXPECT_GT(ev.at("seq").asUint(), from_seq);
            }
            if (ev.at("event").asString() == "end") {
                EXPECT_EQ(ev.at("seq").asUint(), final_seq);
                break;
            }
        }
        return states;
    };
    EXPECT_EQ(countStates(final_seq), 0u);
    EXPECT_EQ(countStates(final_seq - 1), 1u);
}

TEST(ServeE2ETest, DrainShutdownFinishesQueuedJobs)
{
    ServerHarness harness("serve_e2e_drain", 8);
    Client client(harness.socket());
    ASSERT_TRUE(client.valid());

    // More jobs than can run at once (each reserves 5 of 8 threads,
    // so they serialize), then an immediate drain shutdown: every
    // queued job must still complete.
    std::string error;
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 4; ++i) {
        const std::uint64_t id = client.submit(
            specJson("pingpong", 4,
                     "\"seed\": " + std::to_string(i)),
            &error);
        ASSERT_NE(id, 0u) << error;
        ids.push_back(id);
    }
    ASSERT_TRUE(client.shutdown(true, &error)) << error;

    // The harness's server thread returns once the drain completes.
    // Verify outcome from the server object directly (the socket is
    // gone after shutdown).
    // Note: ~ServerHarness would also shut down; join here instead.
    const QueueStats stats = [&] {
        // Wait for run() to return via the harness destructor path:
        // poll the queue until idle, then check outcomes.
        while (!harness.server().queue().idle())
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        return harness.server().queue().stats();
    }();
    EXPECT_EQ(stats.done, ids.size());
    EXPECT_EQ(stats.cancelled, 0u);
}

TEST(ServeE2ETest, FleetTraceMergesJobsOnOneTimeline)
{
    ServerHarness harness("serve_e2e_fleet", 16);
    const std::string &out_root = harness.outRoot();
    Client client(harness.socket());
    ASSERT_TRUE(client.valid());

    // Three jobs: one carries a caller-chosen trace id and the full
    // per-job trace/profile sinks, the others let the server mint.
    std::string error;
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 3; ++i) {
        std::string extra = "\"seed\": " + std::to_string(40 + i) +
                            ", \"host_threads\": 5";
        if (i == 0)
            extra += ", \"trace\": true, \"profile\": true, "
                     "\"trace_id\": \"feedc0defeedc0de\"";
        const std::uint64_t id =
            client.submit(specJson("fft", 4, extra), &error);
        ASSERT_NE(id, 0u) << error;
        ids.push_back(id);
    }
    ASSERT_TRUE(waitAllTerminal(client));

    // The caller-supplied trace id reached the engine: report.json's
    // v5 trace section carries it end to end.
    const json::Value report = json::parse(
        slurp(out_root + "/job-" + std::to_string(ids[0]) +
              "/report.json"));
    const json::Value &rt = report.at("trace");
    EXPECT_TRUE(rt.at("active").asBool());
    EXPECT_EQ(rt.at("trace_id").asString(), "feedc0defeedc0de");
    EXPECT_NE(rt.at("span_id").asString(), "0000000000000000");
    EXPECT_NE(rt.at("parent_span_id").asString(),
              "0000000000000000");

    // The merged fleet timeline over the wire.
    std::string merged;
    ASSERT_TRUE(client.fleetTrace(&merged, &error)) << error;
    const json::Value doc = json::parse(merged);
    EXPECT_EQ(doc.at("metadata").at("schema").asString(),
              "slacksim.fleet_trace.v1");
    EXPECT_EQ(doc.at("metadata").at("jobs").asUint(), 3u);

    // Every job contributes the full span ladder on one tid, every
    // span carries its join keys, and the spliced engine events from
    // job 1 rode in under the caller's trace id.
    std::map<std::string, std::set<std::string>> spans_by_job;
    std::set<std::string> trace_ids;
    for (const auto &ev : doc.at("traceEvents").array) {
        const std::string ph = ev.at("ph").asString();
        if (ph == "M")
            continue;
        ASSERT_TRUE(ev.has("args")) << ev.at("name").asString();
        const json::Value &args = ev.at("args");
        ASSERT_TRUE(args.has("job_id"));
        ASSERT_TRUE(args.has("trace_id"));
        const std::string job = args.at("job_id").asString();
        trace_ids.insert(args.at("trace_id").asString());
        if (ph == "B")
            spans_by_job[job].insert(ev.at("name").asString());
    }
    EXPECT_EQ(spans_by_job.size(), 3u);
    for (const std::uint64_t id : ids) {
        const auto &spans =
            spans_by_job["job-" + std::to_string(id)];
        EXPECT_TRUE(spans.count("job")) << id;
        EXPECT_TRUE(spans.count("validate")) << id;
        EXPECT_TRUE(spans.count("queued")) << id;
        EXPECT_TRUE(spans.count("run")) << id;
    }
    // One minted id per job plus the caller's: all distinct.
    EXPECT_EQ(trace_ids.size(), 3u);
    EXPECT_TRUE(trace_ids.count("feedc0defeedc0de"));
    // The traced job's engine-side spans were spliced in under the
    // same track: the engine-run root span rides next to the server
    // ladder for job 1.
    EXPECT_TRUE(spans_by_job["job-" + std::to_string(ids[0])].count(
        "engine-run"));

    // The journal agrees on the join key for the traced job.
    const std::string journal =
        slurp(out_root + "/server_events.jsonl");
    EXPECT_NE(journal.find("\"trace_id\":\"feedc0defeedc0de\""),
              std::string::npos);
}
