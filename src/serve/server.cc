/**
 * @file
 * Job server implementation.
 */

#include "serve/server.hh"

#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/stat.h>
#include <sys/types.h>

#include <csignal>

#include <unistd.h>

#include "core/run.hh"
#include "serve/fleet_trace.hh"
#include "serve/journal.hh"
#include "util/build_info.hh"
#include "util/io.hh"
#include "util/json.hh"
#include "util/json_parse.hh"
#include "util/logging.hh"
#include "util/options.hh"

namespace slacksim {
namespace serve {

namespace {

/** mkdir -p for the two-level out-root/job-N layout. */
bool
ensureDir(const std::string &path)
{
    if (::mkdir(path.c_str(), 0775) == 0 || errno == EEXIST)
        return true;
    SLACKSIM_WARN("serve: mkdir(", path,
                  ") failed: ", std::strerror(errno));
    return false;
}

/** Slurp a small artifact file; "" when missing. */
std::string
readFileOrEmpty(const std::string &path)
{
    std::ifstream in(path, std::ios::in | std::ios::binary);
    if (!in.is_open())
        return "";
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
writeJobView(JsonWriter &w, const JobView &view)
{
    w.beginObject();
    w.field("id", view.id);
    w.field("name", view.name);
    w.field("kernel", view.kernel);
    w.field("state", jobStateName(view.state));
    if (view.state == JobState::Crashed)
        w.field("crash_signal", signalName(view.crashSignal));
    if (view.attempt > 1)
        w.field("attempt", static_cast<std::uint64_t>(view.attempt));
    w.field("priority", static_cast<std::uint64_t>(view.priority));
    w.field("host_threads",
            static_cast<std::uint64_t>(view.hostThreads));
    if (!view.error.empty())
        w.field("error", view.error);
    if (!view.outDir.empty())
        w.field("out_dir", view.outDir);
    w.field("queue_ms", view.queueMs);
    w.field("run_ms", view.runMs);
    w.field("committed_uops", view.committedUops);
    w.field("simulated_cycles", view.simulatedCycles);
    w.field("scheme", view.scheme);
    // Live heartbeat snapshot; present once the first epoch sample
    // landed (top/watch render it, terminal states keep the last one).
    if (view.progress.epochs != 0) {
        const obs::RunProgress::Snapshot &p = view.progress;
        w.beginObject("progress");
        w.field("epochs", p.epochs);
        w.field("global_cycle", p.globalCycle);
        w.field("slack_bound", p.slackBound);
        w.field("violations", p.violations);
        w.field("checkpoints", p.checkpoints);
        w.field("rollbacks", p.rollbacks);
        w.field("cycles_per_sec", p.cyclesPerSec);
        w.field("events_per_sec", p.eventsPerSec);
        w.field("replay", p.replay);
        w.endObject();
    }
    w.endObject();
}

/**
 * Leave a slacksim.crash_report.v1 stub for an isolated child that
 * died by a signal before writing its run report, so watch/status
 * consumers still find an artifact. @p status is the job's terminal
 * state: "crashed", or "cancelled" for a child killed after its
 * cancel grace.
 */
void
writeStubReport(const SimConfig &config, const SupervisedResult &r,
                const char *status)
{
    const std::string &path = config.engine.obs.reportOut;
    if (path.empty() || !readFileOrEmpty(path).empty())
        return;
    CheckedOfstream os(path, "crash report stub");
    if (!os.ok())
        return;
    JsonWriter w(os.stream(), 0);
    w.beginObject();
    w.field("schema", "slacksim.crash_report.v1");
    w.field("job_id", config.engine.obs.jobId);
    w.field("status", status);
    w.field("signal",
            static_cast<std::uint64_t>(static_cast<unsigned>(r.signal)));
    w.field("signal_name", signalName(r.signal));
    w.field("reason", r.error);
    w.field("spawn_ms", r.spawnMs);
    w.field("child_pid", static_cast<std::int64_t>(r.childPid));
    w.field("trace_id", config.engine.obs.traceId);
    w.endObject();
    os.stream() << "\n";
    os.sync();
}

/** Percentile summary of one histogram for stats / server_report. */
void
writeHistogramSummary(JsonWriter &w, const char *key,
                      const DurationHistogram &h)
{
    w.beginObject(key);
    w.field("count", h.count());
    w.field("sum_ms", h.sum());
    w.field("p50_ms", h.percentile(50));
    w.field("p95_ms", h.percentile(95));
    w.field("p99_ms", h.percentile(99));
    w.endObject();
}

} // namespace

Server::Server(Options opts)
    : opts_(std::move(opts))
{
    std::uint32_t budget = opts_.threadBudget;
    if (budget == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        budget = hw < 8 ? 8 : hw;
    }
    pool_ = std::make_unique<WorkerPool>(budget);
}

Server::~Server()
{
    if (!started_)
        return;
    // run() normally does the orderly teardown; this is the fallback
    // for callers (tests) that tore down without a shutdown op.
    requestShutdown(false);
    if (scheduler_.joinable()) {
        schedulerStop_.store(true, std::memory_order_release);
        scheduler_.join();
    }
    handlersStop_.store(true, std::memory_order_release);
    for (auto &t : handlers_) {
        if (t.joinable())
            t.join();
    }
    listener_.close();
}

bool
Server::start()
{
    if (!ensureDir(opts_.outRoot))
        return false;
    if (!listener_.open(opts_.socketPath))
        return false;
    if (!opts_.faultSpec.empty()) {
        // Operator-owned flag: fatal on bad grammar is fine here,
        // exactly like the CLI's --fault-spec.
        daemonPlan_ = std::make_unique<fault::FaultPlan>(
            fault::FaultPlan::parseSpecList(opts_.faultSpec),
            opts_.faultSeed);
    }
    queue_.setTelemetry(&telemetry_, &events_);
    // recoverFromJournal reads and rotates the old journal, then
    // opens the fresh one itself — EventLog::open truncates, so the
    // order (rotate before open) is load-bearing.
    if (opts_.recover)
        recoverFromJournal();
    else
        events_.open(opts_.outRoot + "/server_events.jsonl");
    telemetry_.poolThreadsTotal.set(pool_->size());
    telemetry_.budgetMemTotalMb.set(opts_.memBudgetMb);
    started_ = true;
    scheduler_ = std::thread([this] { schedulerMain(); });
    SLACKSIM_INFORM("serve: listening on ", opts_.socketPath, " (",
                    pool_->size(), " pool threads, ",
                    opts_.memBudgetMb, " MiB)");
    return true;
}

void
Server::recoverFromJournal()
{
    const std::string path = opts_.outRoot + "/server_events.jsonl";
    JournalReplay replay;
    if (!readJournal(path, &replay)) {
        SLACKSIM_INFORM("serve: --recover found no journal at ",
                        path);
        events_.open(path);
        return;
    }
    // Rotate first: EventLog::open truncates, and the generations
    // must stay on disk for the exactly-once audit.
    rotatedJournal_ = rotateJournal(path);
    events_.open(path);
    for (const JournalJob &jj : replay.jobs) {
        if (jj.terminal)
            continue; // reached a durable terminal state; done
        JobSpec spec;
        std::string error;
        json::Value doc;
        try {
            doc = json::parse(jj.specJson);
        } catch (const json::ParseError &e) {
            error = e.what();
        }
        if (error.empty() && !JobSpec::parse(doc, &spec, &error)) {
            // fallthrough to the warning below
        }
        if (!error.empty()) {
            SLACKSIM_WARN("serve: journal job ", jj.id,
                          " spec unusable (", error, "); dropped");
            continue;
        }
        // A job with a `started` but no terminal event was running
        // when the previous daemon died: the next run consumes a new
        // attempt. A queued-only job replays with its attempt intact.
        const std::uint32_t attempt =
            jj.started ? jj.attempt + 1 : jj.attempt;
        const std::uint64_t id = queue_.submit(
            std::move(spec), jj.idempotencyKey, attempt);
        ++recoveredCount_;
        telemetry_.jobsRecovered.add();
        events_.record(id, "recovered",
                       eventField("journal_id", jj.id) +
                           eventField("attempt",
                                      std::uint64_t{attempt}) +
                           eventField("was_running",
                                      std::uint64_t{jj.started}));
        if (jj.started) {
            if (attempt > jj.maxAttempts) {
                // The ambiguous case resolved pessimistically: it
                // crashed the daemon (or kept crashing with it) too
                // many times. Terminal exactly once, as Failed.
                queue_.markFinished(
                    id, JobState::Failed,
                    "max_attempts (" +
                        std::to_string(jj.maxAttempts) +
                        ") exhausted after daemon crash");
                continue;
            }
            ++retriedCount_;
            telemetry_.jobsRetried.add();
            events_.record(id, "retried",
                           eventField("attempt",
                                      std::uint64_t{attempt}) +
                               eventField(
                                   "max_attempts",
                                   std::uint64_t{jj.maxAttempts}));
        }
    }
    SLACKSIM_INFORM("serve: recovered ", recoveredCount_,
                    " job(s) from the journal (", retriedCount_,
                    " running at crash time; ", replay.linesSkipped,
                    " torn/foreign line(s) skipped)");
}

void
Server::run(const std::atomic<int> *stopSignal)
{
    SLACKSIM_ASSERT(started_, "Server::run before start");
    while (!shutdownRequested_.load(std::memory_order_acquire)) {
        if (stopSignal &&
            stopSignal->load(std::memory_order_relaxed) != 0) {
            SLACKSIM_INFORM("serve: signal received, draining");
            requestShutdown(true);
            break;
        }
        UdsConn conn = listener_.accept(200);
        if (!conn.valid())
            continue;
        std::lock_guard<std::mutex> lock(handlersMu_);
        handlers_.emplace_back(
            [this, c = std::move(conn)]() mutable {
                handleConn(std::move(c));
            });
    }

    // Shutdown: the listener stays open (clients may still watch jobs
    // finish) but nothing new is admitted unless draining.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(opts_.drainDeadlineMs);
    if (!drain_.load(std::memory_order_acquire)) {
        queue_.cancelQueued();
        queue_.cancelRunning();
    }
    while (!queue_.idle()) {
        const bool escalated =
            stopSignal &&
            stopSignal->load(std::memory_order_relaxed) >= 2;
        if (escalated || std::chrono::steady_clock::now() >= deadline) {
            SLACKSIM_WARN("serve: ",
                          escalated ? "second signal"
                                    : "drain deadline expired",
                          ", cancelling remaining jobs");
            queue_.cancelQueued();
            queue_.cancelRunning();
            // Cancelled engines return promptly; wait them out.
            while (!queue_.idle())
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }

    schedulerStop_.store(true, std::memory_order_release);
    scheduler_.join();
    handlersStop_.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(handlersMu_);
        for (auto &t : handlers_)
            t.join();
        handlers_.clear();
    }
    listener_.close();

    const QueueStats s = queue_.stats();
    SLACKSIM_INFORM("serve: shut down (", s.done, " done, ", s.failed,
                    " failed, ", s.cancelled, " cancelled, ",
                    s.timedOut, " timed out, ", s.crashed,
                    " crashed; ", pool_->tasksRun(),
                    " tasks on ", pool_->threadsSpawned(),
                    " host threads)");
}

void
Server::requestShutdown(bool drain)
{
    drain_.store(drain, std::memory_order_release);
    shutdownRequested_.store(true, std::memory_order_release);
}

void
Server::schedulerMain()
{
    while (!schedulerStop_.load(std::memory_order_acquire)) {
        queue_.checkDeadlines();
        reapFinished(false);
        // Admission stops at shutdown unless draining: a drain runs
        // the queue dry, a cancel-shutdown has nothing left to admit.
        const bool admitting =
            !shutdownRequested_.load(std::memory_order_acquire) ||
            drain_.load(std::memory_order_acquire);
        if (admitting) {
            while (Job *job = queue_.admitNext(
                       pool_->size() -
                           reservedThreads_.load(
                               std::memory_order_relaxed),
                       opts_.memBudgetMb -
                           reservedMemMb_.load(
                               std::memory_order_relaxed))) {
                startJob(job);
            }
        }
        publishHeartbeats();
        events_.flush();
        queue_.waitChanged(50);
    }
    // All jobs are terminal by the time run() stops the scheduler;
    // join every outstanding handle and release the budgets, then
    // seal the event log (terminal events are already recorded).
    reapFinished(true);
    events_.close();
}

void
Server::publishHeartbeats()
{
    const auto now = std::chrono::steady_clock::now();
    for (RunningJob &rj : running_) {
        Job *job = queue_.get(rj.id);
        if (!job || job->state != JobState::Running)
            continue;
        const obs::RunProgress::Snapshot p = job->progress->read();
        if (p.epochs == 0)
            continue; // no sample yet; nothing worth logging
        // First-beat detection runs ahead of the 1 Hz throttle: the
        // launch-to-visible latency would otherwise be quantized to
        // the throttle, not to the scheduler's ~50ms poll.
        double first_beat_ms = -1.0;
        if (!rj.firstBeatSeen) {
            rj.firstBeatSeen = true;
            first_beat_ms =
                std::chrono::duration<double, std::milli>(
                    now - rj.launchedAt)
                    .count();
            telemetry_.spawnToFirstHeartbeatMs.observe(first_beat_ms);
        } else if (now - rj.lastBeat < std::chrono::seconds(1)) {
            continue;
        }
        rj.lastBeat = now;
        telemetry_.heartbeats.add();
        std::string fields =
            eventField("epochs", p.epochs) +
            eventField("global_cycle", p.globalCycle) +
            eventField("slack_bound", p.slackBound) +
            eventField("violations", p.violations) +
            eventFieldDouble("cycles_per_sec", p.cyclesPerSec) +
            eventFieldDouble("events_per_sec", p.eventsPerSec) +
            eventField("trace_id", job->traceId);
        if (first_beat_ms >= 0.0) {
            fields += eventFieldDouble("spawn_to_first_heartbeat_ms",
                                       first_beat_ms);
        }
        events_.record(rj.id, "heartbeat", fields);
    }
}

void
Server::refreshGauges() const
{
    const QueueStats s = queue_.stats();
    telemetry_.jobsQueued.set(s.queued);
    telemetry_.jobsRunning.set(s.running);
    telemetry_.poolThreadsTotal.set(pool_->size());
    telemetry_.poolThreadsBusy.set(pool_->size() -
                                   pool_->freeThreads());
    telemetry_.budgetThreadsReserved.set(
        reservedThreads_.load(std::memory_order_relaxed));
    telemetry_.budgetMemReservedMb.set(
        reservedMemMb_.load(std::memory_order_relaxed));
    telemetry_.budgetMemTotalMb.set(opts_.memBudgetMb);
}

void
Server::reapFinished(bool joinAll)
{
    for (auto it = running_.begin(); it != running_.end();) {
        Job *job = queue_.get(it->id);
        const bool terminal = job && isTerminal(job->state);
        if (terminal || joinAll) {
            it->handle->join();
            reservedThreads_.fetch_sub(it->threads,
                                       std::memory_order_relaxed);
            reservedMemMb_.fetch_sub(it->memMb,
                                     std::memory_order_relaxed);
            it = running_.erase(it);
        } else {
            ++it;
        }
    }
}

void
Server::startJob(Job *job)
{
    const std::uint32_t threads = job->spec.hostThreads();
    const std::uint64_t mem = job->spec.memEstimateMb();
    reservedThreads_.fetch_add(threads, std::memory_order_relaxed);
    reservedMemMb_.fetch_add(mem, std::memory_order_relaxed);

    const std::string job_tag = "job-" + std::to_string(job->id);
    const std::string out_dir = opts_.outRoot + "/" + job_tag;
    ensureDir(out_dir);
    queue_.setOutDir(job->id, out_dir);

    SimConfig config = job->spec.toConfig();
    config.engine.obs.reportOut = out_dir + "/report.json";
    config.engine.obs.metricsOut = out_dir + "/metrics.csv";
    // End-to-end correlation: the job id rides inside every artifact
    // the run emits (run report, metrics schema line, forensics) and
    // names the optional per-job sinks.
    config.engine.obs.jobId = job_tag;
    config.engine.obs.progress = job->progress.get();
    // Distributed-trace handoff: the engine span (minted inside the
    // run, possibly in a forked child) nests under the server's root
    // span. The whole identity survives the supervisor fork because
    // the child copies its SimConfig by value.
    config.engine.obs.traceId = job->traceId;
    config.engine.obs.parentSpanId = job->rootSpanId;
    if (job->spec.trace)
        config.engine.obs.traceOut =
            out_dir + "/" + job_tag + ".trace.json";
    if (job->spec.profile) {
        config.engine.obs.profile = true;
        config.engine.obs.profileOut =
            out_dir + "/" + job_tag + ".profile.folded";
    }
    const std::string isolation = effectiveIsolation(job->spec);
    const bool isolated = isolation == "process";
    config.engine.cancel = job->cancel.get();
    // Pool threads cannot cross a fork: the isolated child's engine
    // spawns its own workers, the parent's pool task is just the
    // supervisor loop.
    config.engine.runner = isolated ? nullptr : pool_.get();

    const std::uint64_t id = job->id;
    // `started` is journaled (and flushed) before the job can touch
    // anything: recovery classifies a job as running-at-crash iff
    // this line reached the disk, so it must precede the fork — and
    // precede the daemon-kill drill below.
    events_.record(id, "started",
                   eventField("kernel", config.workload.kernel) +
                       eventField("cores",
                                  std::uint64_t{
                                      config.target.numCores}) +
                       eventField("isolation", isolation) +
                       eventField("attempt",
                                  std::uint64_t{job->attempt}) +
                       eventField("trace_id", job->traceId));
    events_.flush();
    if (daemonPlan_ &&
        daemonPlan_->fireDaemonKill(
            jobsStarted_.fetch_add(1, std::memory_order_relaxed) +
            1)) {
        // Deterministic stand-in for `kill -9` mid-batch: die with
        // zero warning so the recovery drill exercises the real
        // torn-state path, not a graceful drain.
        ::kill(::getpid(), SIGKILL);
    }
    if (isolated) {
        const IsolationLimits limits{job->spec.rlimitMemMb,
                                     job->spec.rlimitCpuS,
                                     opts_.killGraceMs};
        const auto launched = std::chrono::steady_clock::now();
        running_.push_back(RunningJob{
            id, threads, mem,
            pool_->launch([this, id, config, limits] {
                jobBodyIsolated(id, config, limits);
            }),
            launched, launched});
    } else {
        const auto launched = std::chrono::steady_clock::now();
        running_.push_back(RunningJob{
            id, threads, mem,
            pool_->launch([this, id, config] { jobBody(id, config); }),
            launched, launched});
    }
}

std::string
Server::effectiveIsolation(const JobSpec &spec) const
{
    return spec.isolation.empty() ? opts_.defaultIsolation
                                  : spec.isolation;
}

void
Server::jobBody(std::uint64_t id, const SimConfig &config)
{
    const RunResult result = runSimulation(config);
    queue_.recordResult(id, result.committedUops, result.execCycles);
    telemetry_.jobFaults.add(result.faultInjections.size());
    telemetry_.jobDegradations.add(result.demotions);
    // markFinished upgrades Cancelled to TimedOut when the deadline
    // (not a client) fired the token.
    queue_.markFinished(id, result.cancelled ? JobState::Cancelled
                                             : JobState::Done);
}

void
Server::jobBodyIsolated(std::uint64_t id, const SimConfig &config,
                        const IsolationLimits &limits)
{
    Job *job = queue_.get(id);
    const SupervisedResult r = runIsolatedJob(
        config, limits, job->cancel.get(), job->progress.get());
    telemetry_.spawnOverheadMs.observe(r.spawnMs);
    switch (r.status) {
      case SupervisedResult::Status::Ok:
      case SupervisedResult::Status::Cancelled:
        // Killed after its cancel grace: the child wrote no report.
        if (r.signal != 0)
            writeStubReport(config, r, "cancelled");
        queue_.recordResult(id, r.committedUops, r.simulatedCycles);
        telemetry_.jobFaults.add(r.faultInjections);
        telemetry_.jobDegradations.add(r.demotions);
        queue_.markFinished(id,
                            r.status == SupervisedResult::Status::Ok
                                ? JobState::Done
                                : JobState::Cancelled);
        break;
      case SupervisedResult::Status::Crashed:
        writeStubReport(config, r, "crashed");
        queue_.markCrashed(id, r.signal, r.error);
        break;
      case SupervisedResult::Status::Failed:
        queue_.markFinished(id, JobState::Failed, r.error);
        break;
    }
}

void
Server::handleConn(UdsConn conn)
{
    std::string line;
    while (!handlersStop_.load(std::memory_order_acquire)) {
        const UdsConn::Recv r = conn.recvLine(line, 200);
        if (r == UdsConn::Recv::Timeout)
            continue;
        if (r != UdsConn::Recv::Line)
            return;
        if (!handleRequest(conn, line))
            return;
    }
}

bool
Server::sendError(UdsConn &conn, const std::string &error)
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginObject();
    w.field("ok", false);
    w.field("error", error);
    w.endObject();
    return conn.sendLine(os.str());
}

bool
Server::handleRequest(UdsConn &conn, const std::string &line)
{
    json::Value doc;
    try {
        doc = json::parse(line);
    } catch (const json::ParseError &e) {
        return sendError(conn, std::string("bad frame: ") + e.what());
    }

    std::string op;
    try {
        if (!doc.isObject() || !doc.has("op"))
            return sendError(conn, "frame needs an \"op\" key");
        op = doc.at("op").asString();

        if (op == "submit") {
            if (!doc.has("spec"))
                return sendError(conn, "submit needs a \"spec\" key");
            JobSpec spec;
            std::string error;
            if (!JobSpec::parse(doc.at("spec"), &spec, &error))
                return sendError(conn, error);
            if (spec.hostThreads() > pool_->size()) {
                return sendError(
                    conn, "job needs " +
                              std::to_string(spec.hostThreads()) +
                              " host threads but the budget is " +
                              std::to_string(pool_->size()));
            }
            // parse() rejects wrecking faults on explicit inline
            // isolation; this closes the inherit-the-default hole.
            if (spec.needsProcessIsolation() &&
                effectiveIsolation(spec) != "process") {
                return sendError(
                    conn,
                    "fault kinds job-crash/job-hang require "
                    "isolation \"process\" (server default is \"" +
                        opts_.defaultIsolation + "\")");
            }
            if (shutdownRequested_.load(std::memory_order_acquire))
                return sendError(conn, "server is shutting down");
            std::string key;
            if (doc.has("idempotency_key"))
                key = doc.at("idempotency_key").asString();
            bool duplicate = false;
            const std::uint64_t id =
                queue_.submit(std::move(spec), key, 1, &duplicate);
            std::ostringstream os;
            JsonWriter w(os, 0);
            w.beginObject();
            w.field("ok", true);
            w.field("id", id);
            if (duplicate)
                w.field("duplicate", true);
            w.endObject();
            return conn.sendLine(os.str());
        }

        if (op == "status") {
            const std::uint64_t id =
                doc.has("id") ? doc.at("id").asUint() : 0;
            const std::vector<JobView> views = queue_.snapshot(id);
            if (id != 0 && views.empty()) {
                return sendError(conn, "no such job: " +
                                           std::to_string(id));
            }
            std::ostringstream os;
            JsonWriter w(os, 0);
            w.beginObject();
            w.field("ok", true);
            w.beginArray("jobs");
            for (const JobView &view : views)
                writeJobView(w, view);
            w.endArray();
            w.endObject();
            return conn.sendLine(os.str());
        }

        if (op == "cancel") {
            if (!doc.has("id"))
                return sendError(conn, "cancel needs an \"id\" key");
            std::string error;
            if (!queue_.requestCancel(doc.at("id").asUint(), &error))
                return sendError(conn, error);
            return conn.sendLine("{\"ok\": true}");
        }

        if (op == "watch") {
            if (!doc.has("id"))
                return sendError(conn, "watch needs an \"id\" key");
            const std::uint64_t id = doc.at("id").asUint();
            if (queue_.snapshot(id).empty()) {
                return sendError(conn, "no such job: " +
                                           std::to_string(id));
            }
            // from_seq: a reconnecting client passes the last state
            // seq it saw; state events at or below it are skipped.
            const std::uint64_t from_seq =
                doc.has("from_seq") ? doc.at("from_seq").asUint() : 0;
            handleWatch(conn, id, from_seq);
            return false; // watch is terminal for the connection
        }

        if (op == "stats") {
            refreshGauges();
            const QueueStats s = queue_.stats();
            std::ostringstream os;
            JsonWriter w(os, 0);
            w.beginObject();
            w.field("ok", true);
            w.field("accepting",
                    !shutdownRequested_.load(
                        std::memory_order_acquire));
            w.beginObject("pool");
            w.field("size", static_cast<std::uint64_t>(pool_->size()));
            w.field("busy", telemetry_.poolThreadsBusy.value());
            w.field("tasks_run", pool_->tasksRun());
            w.field("threads_spawned", pool_->threadsSpawned());
            w.field("overflow_spawns", pool_->overflowSpawns());
            w.endObject();
            w.beginObject("queue");
            w.field("submitted", s.submitted);
            w.field("queued", s.queued);
            w.field("running", s.running);
            w.field("done", s.done);
            w.field("failed", s.failed);
            w.field("cancelled", s.cancelled);
            w.field("timeout", s.timedOut);
            w.field("crashed", s.crashed);
            w.endObject();
            w.field("mem_budget_mb", opts_.memBudgetMb);
            w.beginObject("telemetry");
            w.field("jobs_submitted",
                    telemetry_.jobsSubmitted.value());
            w.field("jobs_terminal", telemetry_.terminalTotal());
            w.field("admission_denials",
                    telemetry_.admissionDenials.value());
            w.field("admission_backfills",
                    telemetry_.admissionBackfills.value());
            w.field("job_faults", telemetry_.jobFaults.value());
            w.field("job_degradations",
                    telemetry_.jobDegradations.value());
            w.field("heartbeats", telemetry_.heartbeats.value());
            w.field("jobs_crashed", telemetry_.jobsCrashed.value());
            w.field("jobs_retried", telemetry_.jobsRetried.value());
            w.field("jobs_recovered",
                    telemetry_.jobsRecovered.value());
            w.field("events_recorded", events_.recorded());
            w.field("threads_reserved",
                    telemetry_.budgetThreadsReserved.value());
            w.field("mem_reserved_mb",
                    telemetry_.budgetMemReservedMb.value());
            writeHistogramSummary(w, "queue_wait_ms",
                                  telemetry_.queueWaitMs);
            writeHistogramSummary(w, "run_duration_ms",
                                  telemetry_.runDurationMs);
            writeHistogramSummary(w, "spawn_to_first_heartbeat_ms",
                                  telemetry_.spawnToFirstHeartbeatMs);
            w.endObject();
            w.endObject();
            return conn.sendLine(os.str());
        }

        if (op == "metrics") {
            // Prometheus text exposition, shipped as one JSON string
            // so the wire protocol stays line-framed.
            refreshGauges();
            std::ostringstream text;
            telemetry_.writeExposition(text);
            std::ostringstream os;
            JsonWriter w(os, 0);
            w.beginObject();
            w.field("ok", true);
            w.field("content_type",
                    "text/plain; version=0.0.4");
            w.field("text", text.str());
            w.endObject();
            return conn.sendLine(os.str());
        }

        if (op == "trace") {
            // Merge everything the fleet has flushed to disk so far —
            // server_events.jsonl plus each job's Chrome trace — into
            // one Perfetto-loadable timeline. The scheduler flushes
            // the event log every ~50ms pass, so the merge observes
            // at-most-one-pass-stale state; running jobs contribute
            // their server-side spans only (engine traces land at job
            // finish).
            events_.flush();
            std::ostringstream merged;
            std::string error;
            if (!writeFleetTrace(merged, opts_.outRoot, &error))
                return sendError(conn, error);
            std::ostringstream os;
            JsonWriter w(os, 0);
            w.beginObject();
            w.field("ok", true);
            w.field("json", merged.str());
            w.endObject();
            return conn.sendLine(os.str());
        }

        if (op == "shutdown") {
            const bool drain =
                doc.has("drain") ? doc.at("drain").asBool() : true;
            if (!conn.sendLine("{\"ok\": true}"))
                return false;
            requestShutdown(drain);
            return false;
        }

        if (op == "ping")
            return conn.sendLine("{\"ok\": true}");

        const std::string hint = didYouMean(
            op, {"submit", "status", "cancel", "watch", "stats",
                 "metrics", "trace", "shutdown", "ping"});
        std::string error = "unknown op '" + op + "'";
        if (!hint.empty())
            error += " (did you mean '" + hint + "'?)";
        return sendError(conn, error);
    } catch (const json::ParseError &e) {
        // Wrong-typed fields surface here (asString on a number...).
        return sendError(conn, std::string("bad frame: ") + e.what());
    }
}

void
Server::handleWatch(UdsConn &conn, std::uint64_t id,
                    std::uint64_t fromSeq)
{
    // Every job transition bumps stateSeq, so "emit when the seq
    // grew" both deduplicates polls and implements reconnect-resume:
    // a client passing from_seq only sees transitions it missed.
    std::uint64_t lastSeq = fromSeq;
    std::uint64_t lastEpochs = 0;
    auto lastProgress = std::chrono::steady_clock::now();
    for (;;) {
        const std::vector<JobView> views = queue_.snapshot(id);
        if (views.empty())
            return;
        const JobView &view = views.front();
        if (view.stateSeq > lastSeq) {
            lastSeq = view.stateSeq;
            std::ostringstream os;
            JsonWriter w(os, 0);
            w.beginObject();
            w.field("ok", true);
            w.field("event", "state");
            w.field("state", jobStateName(view.state));
            w.field("seq", view.stateSeq);
            w.endObject();
            if (!conn.sendLine(os.str()))
                return;
        }
        // Throttled live progress while the job runs: a new epoch
        // sample and at least a second since the last emit.
        const auto now = std::chrono::steady_clock::now();
        if (view.state == JobState::Running &&
            view.progress.epochs > lastEpochs &&
            now - lastProgress >= std::chrono::seconds(1)) {
            lastEpochs = view.progress.epochs;
            lastProgress = now;
            std::ostringstream os;
            JsonWriter w(os, 0);
            w.beginObject();
            w.field("ok", true);
            w.field("event", "progress");
            w.field("epochs", view.progress.epochs);
            w.field("global_cycle", view.progress.globalCycle);
            w.field("slack_bound", view.progress.slackBound);
            w.field("violations", view.progress.violations);
            w.field("cycles_per_sec", view.progress.cyclesPerSec);
            w.field("events_per_sec", view.progress.eventsPerSec);
            w.field("replay", view.progress.replay);
            w.endObject();
            if (!conn.sendLine(os.str()))
                return;
        }
        if (isTerminal(view.state)) {
            // Stream the per-job artifacts, then the end event.
            const std::string report =
                readFileOrEmpty(view.outDir + "/report.json");
            if (!report.empty()) {
                std::ostringstream os;
                JsonWriter w(os, 0);
                w.beginObject();
                w.field("ok", true);
                w.field("event", "report");
                w.field("json", report);
                w.endObject();
                if (!conn.sendLine(os.str()))
                    return;
            }
            const std::string metrics =
                readFileOrEmpty(view.outDir + "/metrics.csv");
            if (!metrics.empty()) {
                std::ostringstream os;
                JsonWriter w(os, 0);
                w.beginObject();
                w.field("ok", true);
                w.field("event", "metrics");
                w.field("csv", metrics);
                w.endObject();
                if (!conn.sendLine(os.str()))
                    return;
            }
            std::ostringstream os;
            JsonWriter w(os, 0);
            w.beginObject();
            w.field("ok", true);
            w.field("event", "end");
            w.field("state", jobStateName(view.state));
            w.field("seq", view.stateSeq);
            if (!view.error.empty())
                w.field("error", view.error);
            w.endObject();
            conn.sendLine(os.str());
            return;
        }
        if (handlersStop_.load(std::memory_order_acquire))
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
}

void
Server::writeServerReport(std::ostream &os) const
{
    refreshGauges();
    const QueueStats s = queue_.stats();
    const BuildInfo &b = buildInfo();
    JsonWriter w(os);
    w.beginObject();
    // v3 -> v4 (additive): isolation.spawn_to_first_heartbeat_ms —
    // the launch-to-visibly-simulating half of the spawn story.
    w.field("schema", "slacksim.server_report.v4");
    w.beginObject("build");
    w.field("git", b.gitHash);
    w.field("dirty", b.gitDirty[0] != '\0');
    w.field("compiler", b.compiler);
    w.field("build_type", b.buildType);
    w.endObject();
    w.beginObject("pool");
    w.field("size", static_cast<std::uint64_t>(pool_->size()));
    w.field("tasks_run", pool_->tasksRun());
    w.field("threads_spawned", pool_->threadsSpawned());
    w.field("overflow_spawns", pool_->overflowSpawns());
    w.endObject();
    w.beginObject("jobs");
    w.field("submitted", s.submitted);
    w.field("done", s.done);
    w.field("failed", s.failed);
    w.field("cancelled", s.cancelled);
    w.field("timeout", s.timedOut);
    w.field("crashed", s.crashed);
    w.endObject();
    w.beginObject("budget");
    w.field("host_threads",
            static_cast<std::uint64_t>(pool_->size()));
    w.field("mem_mb", opts_.memBudgetMb);
    w.endObject();
    w.beginObject("telemetry");
    w.field("jobs_submitted", telemetry_.jobsSubmitted.value());
    w.field("jobs_terminal", telemetry_.terminalTotal());
    w.field("admission_denials",
            telemetry_.admissionDenials.value());
    w.field("admission_backfills",
            telemetry_.admissionBackfills.value());
    w.field("job_faults", telemetry_.jobFaults.value());
    w.field("job_degradations",
            telemetry_.jobDegradations.value());
    w.field("heartbeats", telemetry_.heartbeats.value());
    w.field("jobs_crashed", telemetry_.jobsCrashed.value());
    w.field("jobs_retried", telemetry_.jobsRetried.value());
    w.field("jobs_recovered", telemetry_.jobsRecovered.value());
    writeHistogramSummary(w, "queue_wait_ms",
                          telemetry_.queueWaitMs);
    writeHistogramSummary(w, "run_duration_ms",
                          telemetry_.runDurationMs);
    w.beginObject("events");
    w.field("recorded", events_.recorded());
    w.field("path", events_.path());
    w.endObject();
    w.endObject();
    w.beginObject("isolation");
    w.field("default", opts_.defaultIsolation);
    w.field("kill_grace_ms", opts_.killGraceMs);
    writeHistogramSummary(w, "spawn_overhead_ms",
                          telemetry_.spawnOverheadMs);
    writeHistogramSummary(w, "spawn_to_first_heartbeat_ms",
                          telemetry_.spawnToFirstHeartbeatMs);
    w.endObject();
    w.beginObject("recovery");
    w.field("enabled", opts_.recover);
    w.field("jobs_recovered", recoveredCount_);
    w.field("jobs_retried", retriedCount_);
    if (!rotatedJournal_.empty())
        w.field("previous_journal", rotatedJournal_);
    w.endObject();
    w.endObject();
    os << "\n";
}

} // namespace serve
} // namespace slacksim
