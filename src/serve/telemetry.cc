/**
 * @file
 * Fleet telemetry implementation: registry instruments, Prometheus
 * text exposition, and the JSONL lifecycle event log.
 */

#include "serve/telemetry.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <ostream>
#include <sstream>

#include <unistd.h>

#include "util/io.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace slacksim {
namespace serve {

namespace {

/** %.12g keeps le labels short ("10", "2500") and sums exact enough
 *  to round-trip through any scraper. */
std::string
fmtDouble(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

std::uint64_t
nowWallMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

std::uint64_t
nowSteadyNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

DurationHistogram::DurationHistogram(std::vector<double> boundsMs)
    : bounds_(std::move(boundsMs))
{
    SLACKSIM_ASSERT(!bounds_.empty(), "histogram needs buckets");
    for (std::size_t i = 1; i < bounds_.size(); ++i) {
        SLACKSIM_ASSERT(bounds_[i] > bounds_[i - 1],
                        "histogram bounds must increase");
    }
    // +1 for the implicit +Inf bucket.
    buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(
        bounds_.size() + 1);
    for (std::size_t i = 0; i <= bounds_.size(); ++i)
        buckets_[i].store(0, std::memory_order_relaxed);
}

std::vector<double>
DurationHistogram::defaultBoundsMs()
{
    return {1,    2.5,  5,    10,    25,    50,    100,   250,
            500,  1000, 2500, 5000,  10000, 30000, 60000};
}

void
DurationHistogram::observe(double ms)
{
    if (!std::isfinite(ms) || ms < 0)
        ms = 0;
    const auto it =
        std::lower_bound(bounds_.begin(), bounds_.end(), ms);
    const std::size_t idx =
        static_cast<std::size_t>(it - bounds_.begin());
    buckets_[idx].fetch_add(1, std::memory_order_relaxed);
    countAll_.fetch_add(1, std::memory_order_relaxed);
    // CAS accumulate: atomic<double>::fetch_add is C++20 but not yet
    // universal across libstdc++ versions this builds on.
    double cur = sumMs_.load(std::memory_order_relaxed);
    while (!sumMs_.compare_exchange_weak(cur, cur + ms,
                                         std::memory_order_relaxed)) {
    }
}

std::uint64_t
DurationHistogram::count() const
{
    return countAll_.load(std::memory_order_relaxed);
}

double
DurationHistogram::sum() const
{
    return sumMs_.load(std::memory_order_relaxed);
}

std::vector<std::uint64_t>
DurationHistogram::snapshot() const
{
    std::vector<std::uint64_t> out(bounds_.size() + 1);
    for (std::size_t i = 0; i <= bounds_.size(); ++i)
        out[i] = buckets_[i].load(std::memory_order_relaxed);
    return out;
}

double
DurationHistogram::percentile(double p) const
{
    const std::vector<std::uint64_t> counts = snapshot();
    std::uint64_t total = 0;
    for (const std::uint64_t c : counts)
        total += c;
    if (total == 0)
        return 0.0;
    p = std::min(100.0, std::max(0.0, p));
    const double rank_exact = p / 100.0 * static_cast<double>(total);
    const std::uint64_t rank = static_cast<std::uint64_t>(
        std::max(1.0, std::ceil(rank_exact)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        seen += counts[i];
        if (seen >= rank) {
            // +Inf bucket reports the last finite bound — a floor,
            // but a finite one.
            return i < bounds_.size() ? bounds_[i] : bounds_.back();
        }
    }
    return bounds_.back();
}

ServerTelemetry::ServerTelemetry()
    : queueWaitMs(DurationHistogram::defaultBoundsMs()),
      runDurationMs(DurationHistogram::defaultBoundsMs()),
      spawnOverheadMs({0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50,
                       100, 250, 500, 1000}),
      spawnToFirstHeartbeatMs(DurationHistogram::defaultBoundsMs())
{
}

std::uint64_t
ServerTelemetry::terminalTotal() const
{
    return jobsDone.value() + jobsFailed.value() +
           jobsCancelled.value() + jobsTimedOut.value() +
           jobsCrashed.value();
}

void
ServerTelemetry::recordCrash(int signal)
{
    jobsCrashed.add();
    std::lock_guard<std::mutex> lock(crashMu_);
    ++crashBySignal_[signalName(signal)];
}

std::vector<std::pair<std::string, std::uint64_t>>
ServerTelemetry::crashBySignal() const
{
    std::lock_guard<std::mutex> lock(crashMu_);
    return {crashBySignal_.begin(), crashBySignal_.end()};
}

std::string
signalName(int signal)
{
    switch (signal) {
      case SIGSEGV: return "SIGSEGV";
      case SIGABRT: return "SIGABRT";
      case SIGKILL: return "SIGKILL";
      case SIGBUS: return "SIGBUS";
      case SIGFPE: return "SIGFPE";
      case SIGILL: return "SIGILL";
      case SIGXCPU: return "SIGXCPU";
      case SIGTERM: return "SIGTERM";
      default: return "SIG" + std::to_string(signal);
    }
}

namespace {

void
writeScalar(std::ostream &os, const char *name, const char *help,
            const char *type, std::uint64_t value)
{
    os << "# HELP " << name << " " << help << "\n"
       << "# TYPE " << name << " " << type << "\n"
       << name << " " << value << "\n";
}

void
writeHistogram(std::ostream &os, const char *name, const char *help,
               const DurationHistogram &h)
{
    os << "# HELP " << name << " " << help << "\n"
       << "# TYPE " << name << " histogram\n";
    const std::vector<std::uint64_t> counts = h.snapshot();
    const std::vector<double> &bounds = h.bounds();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
        cumulative += counts[i];
        os << name << "_bucket{le=\"" << fmtDouble(bounds[i])
           << "\"} " << cumulative << "\n";
    }
    cumulative += counts[bounds.size()];
    os << name << "_bucket{le=\"+Inf\"} " << cumulative << "\n"
       << name << "_sum " << fmtDouble(h.sum()) << "\n"
       << name << "_count " << cumulative << "\n";
}

} // namespace

void
ServerTelemetry::writeExposition(std::ostream &os) const
{
    writeScalar(os, "slacksim_jobs_submitted_total",
                "Jobs accepted by the queue since server start.",
                "counter", jobsSubmitted.value());

    // Terminal statuses share one family with a status label so
    // scrapers can sum() them against jobs_submitted.
    os << "# HELP slacksim_jobs_terminal_total Jobs retired, by "
          "terminal status.\n"
       << "# TYPE slacksim_jobs_terminal_total counter\n"
       << "slacksim_jobs_terminal_total{status=\"done\"} "
       << jobsDone.value() << "\n"
       << "slacksim_jobs_terminal_total{status=\"failed\"} "
       << jobsFailed.value() << "\n"
       << "slacksim_jobs_terminal_total{status=\"cancelled\"} "
       << jobsCancelled.value() << "\n"
       << "slacksim_jobs_terminal_total{status=\"timeout\"} "
       << jobsTimedOut.value() << "\n"
       << "slacksim_jobs_terminal_total{status=\"crashed\"} "
       << jobsCrashed.value() << "\n";

    // Per-signal breakdown of the crashed children; the unlabelled
    // total is the sum of the series (and equals the crashed status
    // above), so it is omitted to keep the family sum()-clean.
    os << "# HELP slacksim_jobs_crashed_total Isolated job children "
          "dead by signal, by signal name.\n"
       << "# TYPE slacksim_jobs_crashed_total counter\n";
    for (const auto &[sig, count] : crashBySignal()) {
        os << "slacksim_jobs_crashed_total{signal=\"" << sig
           << "\"} " << count << "\n";
    }

    writeScalar(os, "slacksim_admission_denials_total",
                "Scheduler passes that left queued work unadmitted "
                "for lack of budget.",
                "counter", admissionDenials.value());
    writeScalar(os, "slacksim_admission_backfills_total",
                "Jobs started ahead of a higher-ranked job that did "
                "not fit the budget.",
                "counter", admissionBackfills.value());
    writeScalar(os, "slacksim_job_faults_total",
                "Fault injections recorded across all finished jobs.",
                "counter", jobFaults.value());
    writeScalar(os, "slacksim_job_degradations_total",
                "Recovery-ladder demotions across all finished jobs.",
                "counter", jobDegradations.value());
    writeScalar(os, "slacksim_heartbeats_total",
                "Per-job heartbeat events published to the event log.",
                "counter", heartbeats.value());
    writeScalar(os, "slacksim_jobs_retried_total",
                "Recovery re-runs of jobs that were running when the "
                "daemon died.",
                "counter", jobsRetried.value());
    writeScalar(os, "slacksim_jobs_recovered_total",
                "Jobs re-admitted from the journal by --recover.",
                "counter", jobsRecovered.value());

    writeScalar(os, "slacksim_jobs_queued",
                "Jobs currently waiting for admission.", "gauge",
                jobsQueued.value());
    writeScalar(os, "slacksim_jobs_running",
                "Jobs currently executing.", "gauge",
                jobsRunning.value());
    writeScalar(os, "slacksim_pool_threads_total",
                "Worker-pool size (the host-thread budget).", "gauge",
                poolThreadsTotal.value());
    writeScalar(os, "slacksim_pool_threads_busy",
                "Worker-pool threads currently occupied by job "
                "tasks.",
                "gauge", poolThreadsBusy.value());
    writeScalar(os, "slacksim_budget_threads_reserved",
                "Host threads reserved by admitted jobs.", "gauge",
                budgetThreadsReserved.value());
    writeScalar(os, "slacksim_budget_mem_reserved_mb",
                "Memory (MiB) reserved by admitted jobs.", "gauge",
                budgetMemReservedMb.value());
    writeScalar(os, "slacksim_budget_mem_total_mb",
                "Admission memory budget (MiB).", "gauge",
                budgetMemTotalMb.value());

    writeHistogram(os, "slacksim_queue_wait_ms",
                   "Submit-to-start latency per admitted job (ms).",
                   queueWaitMs);
    writeHistogram(os, "slacksim_run_duration_ms",
                   "Start-to-finish duration per retired job (ms).",
                   runDurationMs);
    writeHistogram(os, "slacksim_spawn_overhead_ms",
                   "fork-to-ready latency per process-isolated job "
                   "child (ms).",
                   spawnOverheadMs);
    writeHistogram(os, "slacksim_spawn_to_first_heartbeat_ms",
                   "Job launch to first observed RunProgress "
                   "heartbeat (ms).",
                   spawnToFirstHeartbeatMs);
}

EventLog::EventLog() = default;

EventLog::~EventLog()
{
    close();
}

void
EventLog::open(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mu_);
    path_ = path;
}

void
EventLog::record(std::uint64_t jobId, const char *event,
                 const std::string &fieldsJson)
{
    // Timestamps are captured at record time (not flush time): the
    // wall clock joins across hosts, the steady clock orders events
    // exactly within this server.
    const std::uint64_t wall_ms = nowWallMs();
    const std::uint64_t steady_ns = nowSteadyNs();
    std::lock_guard<std::mutex> lock(mu_);
    if (path_.empty() || closed_)
        return;
    std::ostringstream os;
    os << "{\"seq\":" << ++seq_ << ",\"job\":" << jobId
       << ",\"event\":\"" << event << "\",\"wall_ms\":" << wall_ms
       << ",\"steady_ns\":" << steady_ns << fieldsJson << "}";
    pending_.push_back(os.str());
}

void
EventLog::flush()
{
    std::vector<std::string> lines;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (path_.empty() || closed_ || pending_.empty())
            return;
        lines.swap(pending_);
        if (!out_) {
            out_ = std::make_unique<CheckedOfstream>(
                path_, "server event log");
        }
        if (!headerWritten_ && out_->ok()) {
            headerWritten_ = true;
            // wall_ms + steady_ns are a paired clock anchor; pid lets
            // the fleet-trace merger key the server tracks on the
            // daemon's real process id.
            out_->stream()
                << "{\"schema\":\"" << schema
                << "\",\"wall_ms\":" << nowWallMs()
                << ",\"steady_ns\":" << nowSteadyNs()
                << ",\"pid\":" << ::getpid() << "}\n";
        }
        if (out_->ok()) {
            for (const std::string &line : lines)
                out_->stream() << line << "\n";
            // The log doubles as the recovery journal: fsync so a
            // flushed event survives kill -9 and power loss. One
            // fsync per scheduler flush batch, not per event.
            out_->sync();
        }
    }
}

void
EventLog::close()
{
    flush();
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_)
        return;
    closed_ = true;
    if (out_)
        out_->finish();
}

std::uint64_t
EventLog::recorded() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return seq_;
}

std::string
eventField(const char *key, const std::string &value)
{
    return ",\"" + json::escape(key) + "\":\"" + json::escape(value) +
           "\"";
}

std::string
eventField(const char *key, std::uint64_t value)
{
    std::ostringstream os;
    os << ",\"" << key << "\":" << value;
    return os.str();
}

std::string
eventFieldDouble(const char *key, double value)
{
    std::ostringstream os;
    os << ",\"" << key << "\":" << fmtDouble(value);
    return os.str();
}

std::string
eventFieldRaw(const char *key, const std::string &rawJson)
{
    std::ostringstream os;
    os << ",\"" << key << "\":" << rawJson;
    return os.str();
}

} // namespace serve
} // namespace slacksim
