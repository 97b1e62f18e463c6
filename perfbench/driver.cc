/**
 * @file
 * perfbench_driver: the benchmark's load generator. run.py builds it
 * and invokes it once per measured operation (engine mode) or once
 * per closed-loop sweep (sweep mode), under a hard deadline; this
 * binary only drives the simulator through its public entry points
 * and times each call from the outside.
 *
 *   perfbench_driver engine --scheme=bounded|speculative|cc
 *       [--host-threads=N] [--fft-points=N] [--kernel=K] [--uops=N]
 *       [--slack=N] [--profile] [--gen] [--report-out=PATH]
 *       [--spans-out=PATH]
 *
 *     One engine run: the SimSystem constructor, (optionally) a
 *     standalone makeWorkload() call, ParallelEngine::run() or
 *     SerialEngine::run(), and (optionally) obs::writeRunReport().
 *
 *   perfbench_driver sweep --serve-bin=PATH --dir=DIR --seed=N
 *       [--seconds=S] [--min-jobs=N] [--uops=N] [--profile]
 *       [--crash-job=K] [--spans-out=PATH]
 *
 *     Spawns slacksim-serve with kDaemonThreads threads and times
 *     spawn-to-ping, then keeps kOutstanding jobs in flight from one
 *     client thread each (serve::Client submit + watch) until
 *     --seconds have passed and at least --min-jobs were submitted.
 *     Reads the daemon's VmHWM when the --min-jobs-th job has ended.
 *
 * Each mode prints one JSON object on its last stdout line. Spans
 * (name, start, end, parent, trace id) are kept in memory and written
 * to --spans-out at exit; without the flag nothing is recorded.
 */

#include <dirent.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/config.hh"
#include "core/parallel_engine.hh"
#include "core/run_result.hh"
#include "core/serial_engine.hh"
#include "core/sim_system.hh"
#include "obs/run_report.hh"
#include "obs/span.hh"
#include "serve/client.hh"
#include "util/build_info.hh"
#include "util/json.hh"
#include "util/json_parse.hh"
#include "util/logging.hh"
#include "util/options.hh"
#include "util/rng.hh"
#include "util/run_token.hh"
#include "workload/kernels.hh"

using namespace slacksim;

namespace {

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
secondsSince(std::uint64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) / 1e9;
}

/** CPU time of this process, all threads, in seconds. Under a shared
 *  host it excludes the time the process waited for a CPU. */
double
cpuSeconds()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) / 1e9;
}

/** CPU time of every child this process has reaped, and of what they
 *  reaped in turn, in seconds. */
double
reapedChildrenCpuSeconds()
{
    rusage ru{};
    ::getrusage(RUSAGE_CHILDREN, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
               1e6;
}

/** CPU time so far of the live threads of process @p pid, in seconds
 *  (the first field of each /proc/PID/task/TID/schedstat). */
double
liveCpuSeconds(pid_t pid)
{
    const std::string dir = "/proc/" + std::to_string(pid) + "/task";
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return 0.0;
    double ns = 0.0;
    while (const dirent *e = ::readdir(d)) {
        if (e->d_name[0] == '.')
            continue;
        std::ifstream is(dir + "/" + e->d_name + "/schedstat");
        double thread_ns = 0.0;
        if (is >> thread_ns)
            ns += thread_ns;
    }
    ::closedir(d);
    return ns / 1e9;
}

/** VmHWM of process @p pid ("self" for this one), in MiB. */
double
peakRssMb(const std::string &pid)
{
    std::ifstream is("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

/** In-memory span recorder; disabled recorders keep nothing. */
class Spans
{
  public:
    explicit Spans(bool enabled) : enabled_(enabled) {}

    /** Open a span; @return its id (0 when disabled). */
    std::uint64_t
    begin(const std::string &name, std::uint64_t parent,
          const std::string &traceId)
    {
        if (!enabled_)
            return 0;
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back({name, traceId, parent, nowNs(), 0});
        return spans_.size();
    }

    void
    end(std::uint64_t id)
    {
        if (!enabled_ || id == 0)
            return;
        const std::uint64_t t = nowNs();
        std::lock_guard<std::mutex> lock(mu_);
        spans_[id - 1].endNs = t;
    }

    void
    write(const std::string &path) const
    {
        if (!enabled_ || path.empty())
            return;
        std::ofstream os(path);
        JsonWriter w(os);
        w.beginObject();
        w.field("schema", "perfbench.spans.v1");
        w.field("pid", static_cast<std::uint64_t>(::getpid()));
        w.beginArray("spans");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            w.beginObject();
            w.field("id", static_cast<std::uint64_t>(i + 1));
            w.field("name", s.name);
            w.field("parent", s.parent);
            w.field("trace_id", s.traceId);
            w.field("start_ns", s.startNs);
            w.field("end_ns", s.endNs);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        w.finish();
        if (!os)
            SLACKSIM_FATAL("perfbench: cannot write ", path);
    }

  private:
    struct Span
    {
        std::string name;
        std::string traceId;
        std::uint64_t parent = 0;
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
    };

    bool enabled_;
    std::mutex mu_;
    std::vector<Span> spans_;
};

/** RAII span. */
class SpanScope
{
  public:
    SpanScope(Spans &spans, const std::string &name,
              std::uint64_t parent = 0, const std::string &traceId = "")
        : spans_(spans), id_(spans.begin(name, parent, traceId))
    {}
    ~SpanScope() { spans_.end(id_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    Spans &spans_;
    std::uint64_t id_;
};

/** The benchmark's engine configurations; see METHODOLOGY.md. */
SimConfig
engineConfig(const Options &opts)
{
    const std::string scheme = opts.get("scheme", "bounded");
    SimConfig c;
    c.workload.kernel = opts.get("kernel", "fft");
    c.workload.numThreads = c.target.numCores;
    c.workload.fftPoints = opts.getUint("fft-points", 65536);
    c.workload.seed = opts.getUint("seed", 42);
    c.engine.maxCommittedUops = opts.getUint("uops", 0);
    if (opts.has("host-threads"))
        c.engine.hostThreads =
            static_cast<std::uint32_t>(opts.getUint("host-threads", 1));
    c.engine.obs.profile = opts.has("profile");
    if (scheme == "bounded") {
        c.engine.scheme = SchemeKind::Bounded;
        c.engine.slackBound = opts.getUint("slack", 64);
    } else if (scheme == "speculative") {
        c.engine.scheme = SchemeKind::Adaptive;
        c.engine.checkpoint.mode = CheckpointMode::Speculative;
        c.engine.checkpoint.interval = 10000;
        c.engine.checkpoint.rollbackOnBus = true;
        c.engine.checkpoint.rollbackOnMap = true;
    } else if (scheme == "cc") {
        // The oracle: the serial engine, cycle by cycle.
        c.engine.scheme = SchemeKind::CycleByCycle;
        c.engine.parallelHost = false;
    } else {
        SLACKSIM_FATAL("perfbench: unknown scheme '", scheme, "'");
    }
    return c;
}

int
engineMain(const Options &opts)
{
    const SimConfig config = engineConfig(opts);
    Spans spans(opts.has("spans-out"));
    // One trace id per operation, shared by all of its spans.
    const std::string trace_id = obs::mintTraceId();
    const std::uint64_t root = spans.begin("op", 0, trace_id);

    // runSimulation() mints a run token and binds it; driving the
    // engines directly has to do the same for the obs registries.
    const std::uint64_t token = newRunToken();
    ScopedRunToken token_scope(token);

    std::uint64_t t0 = nowNs();
    double c0 = cpuSeconds();
    const std::uint64_t build_span =
        spans.begin("SimSystem", root, trace_id);
    SimSystem sys(config);
    const double build_s = secondsSince(t0);
    const double build_cpu_s = cpuSeconds() - c0;
    spans.end(build_span);
    sys.setRunBinding(token, nullptr);

    // The constructor generates the workload itself. A standalone
    // makeWorkload() call after it, on the same warm heap, splits the
    // constructor into generation and the rest (core.build_s).
    double gen_s = 0.0;
    std::uint64_t trace_uops = 0;
    if (opts.has("gen")) {
        SpanScope s(spans, "makeWorkload", root, trace_id);
        t0 = nowNs();
        const Workload w = makeWorkload(config.workload);
        gen_s = secondsSince(t0);
        trace_uops = w.totalMicroOps();
    }

    RunResult r;
    t0 = nowNs();
    c0 = cpuSeconds();
    {
        SpanScope s(spans, config.engine.parallelHost
                               ? "ParallelEngine::run"
                               : "SerialEngine::run",
                    root, trace_id);
        if (config.engine.parallelHost) {
            ParallelEngine engine(sys);
            r = engine.run();
        } else {
            SerialEngine engine(sys);
            r = engine.run();
        }
    }
    const double run_s = secondsSince(t0);
    const double run_cpu_s = cpuSeconds() - c0;

    double report_write_ms = 0.0;
    if (opts.has("report-out")) {
        SpanScope s(spans, "obs::writeRunReport", root, trace_id);
        t0 = nowNs();
        std::ofstream os(opts.get("report-out"));
        obs::writeRunReport(os, config, r);
        os.flush();
        report_write_ms = secondsSince(t0) * 1e3;
        if (!os)
            SLACKSIM_FATAL("perfbench: cannot write run report");
    }

    std::ostringstream out;
    JsonWriter w(out, 0);
    w.beginObject();
    w.field("mode", "engine");
    w.field("gen_s", gen_s);
    w.field("trace_uops", trace_uops);
    w.field("build_s", build_s);
    w.field("run_s", run_s);
    w.field("build_cpu_s", build_cpu_s);
    w.field("run_cpu_s", run_cpu_s);
    w.field("report_write_ms", report_write_ms);
    w.field("peak_rss_mb", peakRssMb("self"));
    w.field("build_type", buildInfo().buildType);
    w.field("git_hash", buildInfo().gitHash);
    w.field("exec_cycles", r.execCycles);
    w.field("committed_uops", r.committedUops);
    w.field("bus_requests", r.uncore.busRequests);
    w.field("bus_queueing_cycles", r.uncore.busQueueingCycles);
    w.field("l1d_hits", r.coreTotal.l1dHits);
    w.field("l1d_misses", r.coreTotal.l1dMisses);
    w.field("l2_hits", r.uncore.l2Hits);
    w.field("l2_misses", r.uncore.l2Misses);
    w.field("bus_violations", r.violations.busViolations);
    w.field("map_violations", r.violations.mapViolations);
    w.field("host_threads_used",
            static_cast<std::uint64_t>(r.host.hostThreadsUsed));
    w.field("checkpoints", r.host.checkpointsTaken);
    w.field("checkpoint_bytes", r.host.checkpointBytes);
    w.field("checkpoint_s", r.host.checkpointSeconds);
    w.field("checkpoint_async_s", r.host.checkpointAsyncSeconds);
    w.field("rollbacks", r.host.rollbacks);
    w.field("wasted_cycles", r.host.wastedCycles);
    w.field("replay_cycles", r.host.replayCycles);
    w.field("manager_wakeups", r.host.managerWakeups);
    w.field("core_park_events", r.host.coreParkEvents);
    w.field("max_observed_slack", r.host.maxObservedSlack);
    const obs::ProfileReport &p = r.forensics.profile;
    if (p.enabled) {
        // Shares of total host thread-time: phase totals sum over all
        // threads, and per thread phases + other add up to its span.
        std::uint64_t span_ns = 0, other_ns = 0;
        for (const auto &wk : p.workers) {
            span_ns += wk.spanNs;
            other_ns += wk.otherNs;
        }
        w.beginObject("phases_ns");
        for (const auto &ph : p.phaseTotals)
            w.field(ph.name.c_str(), ph.ns);
        w.field("other", other_ns);
        w.field("total", span_ns);
        w.endObject();
    }
    w.endObject();
    spans.end(root);
    spans.write(opts.get("spans-out", ""));
    std::cout << out.str() << std::endl;
    return 0;
}

// ---------------------------------------------------------------- sweep

constexpr std::uint32_t kOutstanding = 3;   //!< jobs in flight
constexpr std::uint32_t kDaemonThreads = 3; //!< slacksim-serve --threads
constexpr std::uint64_t kSetups = 14;       //!< extra timed daemon starts
constexpr std::uint64_t kJobTimeoutMs = 30000;
/** Past --seconds plus this, the daemon is killed (see sweepMain). */
constexpr double kGraceS = 90.0;
/** The daemon's watch poll interval (Server::handleWatch). */
constexpr std::uint64_t kWatchPollMs = 50;

/** One sweep job as the client saw it. */
struct JobRecord
{
    std::uint64_t id = 0;
    std::uint64_t slack = 0;
    std::uint64_t sendNs = 0;   //!< client sends submit
    std::uint64_t ackNs = 0;    //!< submit reply received
    std::uint64_t endNs = 0;    //!< end event received
    std::string state;          //!< end state ("" = never ended)
    std::string error;
    std::uint64_t committedUops = 0;
    double engineS = -1.0;      //!< report result.wall_seconds
    double phasesTotalNs = 0.0; //!< profile thread-time (--profile)
    std::vector<std::pair<std::string, double>> phases;
    bool crashInjected = false;
};

pid_t
spawnDaemon(const std::string &bin, std::uint32_t threads)
{
    const std::string thr = "--threads=" + std::to_string(threads);
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0)
        SLACKSIM_FATAL("perfbench: fork failed");
    if (pid == 0) {
        // The daemon must not outlive the benchmark, whatever kills it.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(1);
        FILE *f = std::freopen("serve.log", "w", stdout);
        if (f)
            ::dup2(::fileno(stdout), 2);
        ::execl(bin.c_str(), bin.c_str(), "--socket=serve.sock",
                "--out-root=out", thr.c_str(), "--quiet",
                static_cast<char *>(nullptr));
        ::_exit(127);
    }
    return pid;
}

/** Poll `ping` until the daemon answers. @return false on timeout or
 *  when the daemon died. */
bool
waitForPing(const std::string &sock, pid_t pid, double timeout_s)
{
    const std::uint64_t t0 = nowNs();
    while (secondsSince(t0) < timeout_s) {
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid)
            return false;
        serve::Client c(sock);
        std::string error;
        if (c.valid() && c.request("{\"op\": \"ping\"}", nullptr, &error))
            return true;
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    return false;
}

/** Drain-shutdown the daemon and reap it; SIGKILL after @p grace_s. */
void
stopDaemon(const std::string &sock, pid_t pid, double grace_s)
{
    {
        serve::Client c(sock);
        std::string error;
        if (c.valid())
            c.shutdown(true, &error);
    }
    const std::uint64_t t0 = nowNs();
    int status = 0;
    while (::waitpid(pid, &status, WNOHANG) != pid) {
        if (secondsSince(t0) > grace_s) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, &status, 0);
            return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

std::string
jobSpec(std::uint64_t index, std::uint64_t slack, const Options &opts,
        const std::string &traceId, bool crash)
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginObject();
    w.field("name", "sweep-" + std::to_string(index));
    w.field("kernel", "barnes");
    w.field("scheme", "bounded");
    w.field("slack", slack);
    w.field("seed", opts.getUint("seed", 42));
    w.field("max_uops", opts.getUint("uops", 200000));
    w.field("host_threads", std::uint64_t{1});
    w.field("timeout_ms", kJobTimeoutMs);
    w.field("max_attempts", std::uint64_t{1});
    w.field("trace_id", traceId);
    if (opts.has("profile"))
        w.field("profile", true);
    if (crash)
        w.field("fault_spec", "job-crash@cycle:2000");
    w.endObject();
    return os.str();
}

/** Fold a streamed run report into @p rec. */
void
readReport(const std::string &text, JobRecord *rec)
{
    const json::Value doc = json::parse(text);
    const json::Value &result = doc.at("result");
    rec->committedUops = result.at("committed_uops").asUint();
    rec->engineS = result.at("wall_seconds").asNumber();
    if (doc.has("profile") && doc.at("profile").at("enabled").asBool()) {
        const json::Value &p = doc.at("profile");
        double total = 0.0, other = 0.0;
        for (const auto &wk : p.at("workers").array) {
            total += wk.at("span_ns").asNumber();
            other += wk.at("other_ns").asNumber();
        }
        rec->phasesTotalNs = total;
        for (const auto &ph : p.at("phases").array)
            rec->phases.emplace_back(ph.at("name").asString(),
                                     ph.at("ns").asNumber());
        rec->phases.emplace_back("other", other);
    }
}

/** A served job's lifecycle timestamps, from server_events.jsonl. */
struct JournalTimes
{
    std::uint64_t submitted = 0, admitted = 0, started = 0, ended = 0;
};

std::vector<std::pair<std::uint64_t, JournalTimes>>
readJournal(const std::string &path)
{
    std::vector<std::pair<std::uint64_t, JournalTimes>> out;
    std::ifstream is(path);
    std::string line;
    auto slot = [&out](std::uint64_t id) -> JournalTimes & {
        for (auto &p : out)
            if (p.first == id)
                return p.second;
        out.emplace_back(id, JournalTimes{});
        return out.back().second;
    };
    while (std::getline(is, line)) {
        json::Value doc;
        try {
            doc = json::parse(line);
        } catch (const json::ParseError &) {
            continue; // a torn tail line
        }
        if (!doc.has("event") || !doc.has("job"))
            continue;
        const std::string ev = doc.at("event").asString();
        const std::uint64_t ns = doc.at("steady_ns").asUint();
        JournalTimes &t = slot(doc.at("job").asUint());
        if (ev == "submitted")
            t.submitted = ns;
        else if (ev == "admitted")
            t.admitted = ns;
        else if (ev == "started")
            t.started = ns;
        else if (ev == "completed" || ev == "failed" ||
                 ev == "cancelled" || ev == "timed_out" ||
                 ev == "crashed")
            t.ended = ns;
    }
    return out;
}

int
sweepMain(const Options &opts)
{
    const std::string bin = opts.get("serve-bin");
    const std::string dir = opts.get("dir");
    const double seconds = opts.getDouble("seconds", 10.0);
    const std::uint64_t min_jobs = opts.getUint("min-jobs", 100);
    const std::uint64_t crash_job = opts.getUint("crash-job", 0);
    Spans spans(opts.has("spans-out"));
    // Work inside --dir with relative paths: a socket path must fit
    // sockaddr_un (108 bytes), whatever the checkout's absolute path.
    if (::chdir(dir.c_str()) != 0)
        SLACKSIM_FATAL("perfbench: cannot enter ", dir);
    const std::string sock = "serve.sock";

    // Daemon start-up, several times: spawn until `ping` answers.
    // The last daemon stays up and serves the sweep.
    std::vector<double> start_s, start_cpu_s;
    pid_t pid = -1;
    double reaped_cpu0 = 0.0;
    for (std::uint64_t i = 0; i <= kSetups; ++i) {
        SpanScope s(spans, "daemon-start");
        reaped_cpu0 = reapedChildrenCpuSeconds();
        const std::uint64_t t0 = nowNs();
        pid = spawnDaemon(bin, kDaemonThreads);
        if (!waitForPing(sock, pid, 20.0)) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
            SLACKSIM_FATAL("perfbench: slacksim-serve did not answer "
                           "ping");
        }
        start_s.push_back(secondsSince(t0));
        start_cpu_s.push_back(liveCpuSeconds(pid));
        if (i < kSetups)
            stopDaemon(sock, pid, 10.0);
    }

    // A hard deadline for the whole loop: past it the daemon is
    // killed, every pending watch fails, and those jobs count as
    // failed instead of hanging the benchmark.
    const double hard_s = seconds + kGraceS;
    std::atomic<bool> finished{false};
    std::thread guard([&] {
        const std::uint64_t t0 = nowNs();
        while (!finished.load()) {
            if (secondsSince(t0) > hard_s) {
                ::kill(pid, SIGKILL);
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    });

    const std::uint64_t slacks[] = {1, 4, 16, 64};
    std::atomic<std::uint64_t> next{0};
    std::mutex mu;
    std::vector<JobRecord> records;
    double rss_at_min_jobs = 0.0;
    const std::uint64_t loop_start = nowNs();
    auto client_loop = [&] {
        for (;;) {
            const std::uint64_t index = next.fetch_add(1);
            if (index >= min_jobs && secondsSince(loop_start) >= seconds)
                return;
            JobRecord rec;
            rec.slack = slacks[index % 4];
            rec.crashInjected = crash_job != 0 && index + 1 == crash_job;
            const std::string trace_id = [&] {
                char buf[17];
                std::snprintf(buf, sizeof buf, "%016llx",
                              static_cast<unsigned long long>(
                                  0x5eed000000000000ull +
                                  opts.getUint("seed", 42) * 100000 +
                                  index));
                return std::string(buf);
            }();
            SpanScope job(spans, "job", 0, trace_id);
            serve::Client client(sock);
            std::string error;
            rec.sendNs = nowNs();
            {
                SpanScope s(spans, "Client::submit", job.id(), trace_id);
                rec.id = client.submit(
                    jobSpec(index, rec.slack, opts, trace_id,
                            rec.crashInjected),
                    &error);
            }
            rec.ackNs = nowNs();
            if (rec.id == 0) {
                rec.error = "submit: " + error;
            } else {
                // The daemon polls a watch every kWatchPollMs from when
                // the watch starts. Starting it a seeded random delay
                // after the submit spreads that poll phase uniformly over
                // job completions, so latency percentiles move smoothly
                // with host speed instead of in whole-poll steps. The
                // mean latency is unchanged.
                Rng dither(opts.getUint("seed", 42) * 1000003 + index);
                std::this_thread::sleep_for(std::chrono::microseconds(
                    dither.below(kWatchPollMs * 1000)));
                SpanScope s(spans, "Client::watch", job.id(), trace_id);
                const bool ended = client.watch(
                    rec.id,
                    [&rec](const json::Value &ev) {
                        const std::string kind = ev.at("event").asString();
                        if (kind == "report") {
                            try {
                                readReport(ev.at("json").asString(), &rec);
                            } catch (const json::ParseError &e) {
                                rec.error = std::string("report: ") +
                                            e.what();
                            }
                        } else if (kind == "end") {
                            rec.endNs = nowNs();
                            rec.state = ev.at("state").asString();
                        }
                    },
                    &error);
                if (!ended)
                    rec.error = "watch: " + error;
            }
            std::lock_guard<std::mutex> lock(mu);
            records.push_back(std::move(rec));
            // The daemon keeps every job it served in memory, so its
            // peak RSS grows with the job count; read it at a fixed
            // count, or a faster daemon would look fatter.
            if (records.size() == min_jobs)
                rss_at_min_jobs = peakRssMb(std::to_string(pid));
        }
    };
    std::vector<std::thread> clients;
    for (std::uint32_t i = 0; i < kOutstanding; ++i)
        clients.emplace_back(client_loop);
    for (auto &t : clients)
        t.join();
    const double loop_s = secondsSince(loop_start);
    if (rss_at_min_jobs == 0.0)
        rss_at_min_jobs = peakRssMb(std::to_string(pid));
    finished.store(true);
    guard.join();
    stopDaemon(sock, pid, 20.0);
    // The serving daemon's whole life, with the job processes it reaped.
    const double daemon_cpu_s = reapedChildrenCpuSeconds() - reaped_cpu0;

    const auto journal = readJournal("out/server_events.jsonl");
    std::ostringstream out;
    JsonWriter w(out, 0);
    w.beginObject();
    w.field("mode", "sweep");
    w.beginArray("daemon_start_s");
    for (double s : start_s)
        w.value(s);
    w.endArray();
    w.beginArray("daemon_start_cpu_s");
    for (double s : start_cpu_s)
        w.value(s);
    w.endArray();
    w.field("loop_s", loop_s);
    w.field("daemon_cpu_s", daemon_cpu_s);
    w.field("peak_rss_mb", rss_at_min_jobs);
    w.field("build_type", buildInfo().buildType);
    w.field("git_hash", buildInfo().gitHash);
    w.field("uops_budget", opts.getUint("uops", 200000));
    w.beginArray("jobs");
    for (const JobRecord &rec : records) {
        JournalTimes jt;
        for (const auto &p : journal)
            if (p.first == rec.id)
                jt = p.second;
        w.beginObject();
        w.field("id", rec.id);
        w.field("slack", rec.slack);
        w.field("state", rec.state);
        w.field("error", rec.error);
        w.field("committed_uops", rec.committedUops);
        w.field("engine_s", rec.engineS);
        w.field("send_ns", rec.sendNs);
        w.field("ack_ns", rec.ackNs);
        w.field("end_ns", rec.endNs);
        w.field("submitted_ns", jt.submitted);
        w.field("admitted_ns", jt.admitted);
        w.field("started_ns", jt.started);
        w.field("ended_ns", jt.ended);
        if (rec.phasesTotalNs > 0.0) {
            w.beginObject("phases_ns");
            for (const auto &ph : rec.phases)
                w.field(ph.first.c_str(), ph.second);
            w.field("total", rec.phasesTotalNs);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    spans.write(opts.get("spans-out", ""));
    std::cout << out.str() << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    opts.enforceKnown(
        "perfbench_driver: benchmark load generator (engine|sweep)",
        {{"scheme", "NAME", "engine: bounded|speculative|cc"},
         {"host-threads", "N", "engine: hostThreads (default 1)"},
         {"fft-points", "N", "engine: FFT points (default 65536)"},
         {"kernel", "NAME", "engine: workload kernel (default fft)"},
         {"slack", "N", "engine: slack-fft bound (default 64)"},
         {"uops", "N", "committed-uop budget (engine: 0 = whole "
                       "trace; sweep: per job)"},
         {"seed", "N", "workload seed"},
         {"profile", "", "host-time profile (phase shares)"},
         {"gen", "", "engine: also time a standalone makeWorkload"},
         {"report-out", "PATH", "engine: time obs::writeRunReport"},
         {"spans-out", "PATH", "record spans and write them here"},
         {"serve-bin", "PATH", "sweep: slacksim-serve binary"},
         {"dir", "DIR", "sweep: socket and daemon output directory"},
         {"seconds", "S", "sweep: minimum loop duration"},
         {"min-jobs", "N", "sweep: minimum jobs submitted"},
         {"crash-job", "K", "sweep: job K carries a job-crash fault"}});
    setQuietLogging(true);
    const auto &pos = opts.positional();
    const std::string mode = pos.empty() ? "" : pos.front();
    if (mode == "engine")
        return engineMain(opts);
    if (mode == "sweep")
        return sweepMain(opts);
    std::cerr << "usage: perfbench_driver engine|sweep [flags]\n";
    return 2;
}
