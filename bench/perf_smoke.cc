/**
 * @file
 * Perf-smoke harness: a fixed set of short engine runs whose
 * throughput is recorded as machine-readable JSON (BENCH_perf.json)
 * so every PR leaves a comparable perf trajectory behind.
 *
 * Unlike the table/figure harnesses this binary is not about the
 * paper's numbers: it exists to catch host-side regressions in the
 * engine hot paths (queue plumbing, manager service, pacing,
 * checkpoint serialization). Runs are repeated --repeat times and the
 * best wall time is kept, which filters scheduler noise on small
 * hosts.
 *
 * JSON schema (see EXPERIMENTS.md "Perf methodology"):
 *   {
 *     "schema": "slacksim.perf_smoke.v1",
 *     "kernel": "...", "uops": N, "repeat": R, "host_cpus": H,
 *     "runs": [ { "name", "scheme", "parallel_host", "host_threads",
 *                 "wall_seconds", "committed_uops", "bus_requests",
 *                 "events", "events_per_sec", "uops_per_sec",
 *                 "checkpoints", "checkpoint_bytes",
 *                 "checkpoint_seconds", "checkpoint_async_seconds",
 *                 "checkpoint_bytes_per_sec",
 *                 "bus_violations", "map_violations" },
 *               ... ]
 *   }
 *
 * "checkpoint_async_seconds" reads 0: checkpoints seal on the
 * manager, so all their time is "checkpoint_seconds". The column
 * stays so old and new recordings keep one schema.
 *
 * "host_threads" is per run and reports what the engine *actually
 * used* (RunResult host.hostThreadsUsed: manager + workers),
 * not the machine's concurrency — earlier recordings wrote one global
 * hardware_concurrency() figure, which made parallel runs on a
 * 1-CPU CI host look like serial ones. The machine figure survives as
 * the top-level "host_cpus".
 *
 * Repeats are interleaved round-robin across the run set (round 1 of
 * every config, then round 2, ...) so slow drift in host load hits
 * every config equally instead of whichever config happened to run
 * last; best wall time per config is kept as before.
 *
 * "events" counts the simulated work the engine processed: committed
 * micro-ops plus serviced bus requests. events_per_sec is the
 * headline trend metric; the "bounded-micro" run is the canonical
 * bounded-slack micro-workload number quoted in PR descriptions.
 *
 * With --baseline=PATH the harness also compares each run's
 * events_per_sec against the named earlier recording and fails when
 * any run drops below --min-ratio (default 0.5) of it. CI uses this
 * against bench/BENCH_perf_baseline.json to assert the fault-
 * injection layer is free when no plan is installed: these runs
 * configure no --fault-spec, so every fault hook must collapse to one
 * relaxed pointer load. The same floor now also polices the recorder
 * hooks: baseline runs set no --profile or --trace-out, so a dormant
 * obs::Scope that stopped being a single relaxed load would show up
 * here.
 *
 * With --profile each run additionally records the host-time phase
 * attribution of its best repetition, prints the breakdown, and emits
 * it as a "profile" object per run (wall_ns, attributed_ns, verdict,
 * phases[]) so the bench trajectory carries attribution, not just
 * events/s. The extra keys are invisible to baselineEventsPerSec(),
 * which anchors on "name"/"events_per_sec" only, so old and new
 * recordings stay comparable.
 *
 * With --min-parallel-serial-ratio=R the harness fails when the
 * bounded parallel run ("bounded-micro") delivers fewer events/s than
 * R x the serial control ("bounded-serial") — the paper's core claim,
 * enforced as a floor. CI starts this at 1.0.
 *
 * With --host-threads=A,B,... the harness additionally sweeps the
 * bounded workload across explicit engine host-thread counts
 * (EngineConfig::hostThreads), one run per value, named
 * "bounded-htK". 1 is the inline manager-only engine; 0 means
 * auto-size. The sweep shows where the parallel engine stops paying
 * for itself on the current machine.
 *
 * Flags: --kernel=NAME --uops=N --repeat=N --out=PATH --serial
 *        --baseline=PATH --min-ratio=R --profile
 *        --min-parallel-serial-ratio=R --host-threads=LIST
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "util/json.hh"
#include "util/logging.hh"

using namespace slacksim;
using namespace slacksim::bench;

namespace {

/** One measured configuration. */
struct SmokeRun
{
    std::string name;
    SimConfig config;
};

/** Best-of-N measurement of one configuration. */
struct Measurement
{
    std::string name;
    const char *scheme = "";
    bool parallelHost = false;
    std::uint32_t hostThreadsUsed = 1;
    double wallSeconds = 0.0;
    std::uint64_t committedUops = 0;
    std::uint64_t busRequests = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t checkpointBytes = 0;
    double checkpointSeconds = 0.0;
    double checkpointAsyncSeconds = 0.0;
    std::uint64_t busViolations = 0;
    std::uint64_t mapViolations = 0;
    obs::ProfileReport profile; //!< best run's attribution (--profile)

    std::uint64_t events() const { return committedUops + busRequests; }

    double
    eventsPerSec() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(events()) / wallSeconds
                   : 0.0;
    }

    double
    uopsPerSec() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(committedUops) / wallSeconds
                   : 0.0;
    }

    double
    checkpointBytesPerSec() const
    {
        // checkpointBytes is the size of one (the latest) snapshot;
        // total serialized volume is bytes * count.
        return checkpointSeconds > 0.0
                   ? static_cast<double>(checkpointBytes) *
                         static_cast<double>(checkpoints) /
                         checkpointSeconds
                   : 0.0;
    }
};

SimConfig
microConfig(const Options &opts, const std::string &kernel,
            std::uint64_t uops)
{
    SimConfig config = paperSetup(kernel, uops);
    applyCommonFlags(opts, config);
    config.workload.footprintBytes = 256 * 1024;
    return config;
}

/** One repetition of one configuration folded into its best-of. */
void
measureOnce(const SmokeRun &run, std::uint64_t round, Measurement *m)
{
    m->name = run.name;
    m->scheme = schemeName(run.config.engine.scheme);
    m->parallelHost = run.config.engine.parallelHost;
    const RunResult r = runSimulation(run.config);
    if (round == 0 || r.host.wallSeconds < m->wallSeconds) {
        m->hostThreadsUsed = r.host.hostThreadsUsed;
        m->wallSeconds = r.host.wallSeconds;
        m->committedUops = r.committedUops;
        m->busRequests = r.uncore.busRequests;
        m->checkpoints = r.host.checkpointsTaken;
        m->checkpointBytes = r.host.checkpointBytes;
        m->checkpointSeconds = r.host.checkpointSeconds;
        m->checkpointAsyncSeconds = r.host.checkpointAsyncSeconds;
        m->busViolations = r.violations.busViolations;
        m->mapViolations = r.violations.mapViolations;
        m->profile = r.forensics.profile;
    }
}

void
writeJson(std::ostream &os, const std::string &kernel,
          std::uint64_t uops, std::uint64_t repeat,
          const std::vector<Measurement> &all)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "slacksim.perf_smoke.v1");
    w.field("kernel", kernel);
    w.field("uops", uops);
    w.field("repeat", repeat);
    w.field("host_cpus",
            static_cast<std::uint64_t>(
                std::thread::hardware_concurrency()));
    w.beginArray("runs");
    for (const Measurement &m : all) {
        w.beginObject();
        w.field("name", m.name);
        w.field("scheme", m.scheme);
        w.field("parallel_host", m.parallelHost);
        w.field("host_threads",
                static_cast<std::uint64_t>(m.hostThreadsUsed));
        w.field("wall_seconds", m.wallSeconds);
        w.field("committed_uops", m.committedUops);
        w.field("bus_requests", m.busRequests);
        w.field("events", m.events());
        w.field("events_per_sec", m.eventsPerSec());
        w.field("uops_per_sec", m.uopsPerSec());
        w.field("checkpoints", m.checkpoints);
        w.field("checkpoint_bytes", m.checkpointBytes);
        w.field("checkpoint_seconds", m.checkpointSeconds);
        w.field("checkpoint_async_seconds", m.checkpointAsyncSeconds);
        w.field("checkpoint_bytes_per_sec", m.checkpointBytesPerSec());
        w.field("bus_violations", m.busViolations);
        w.field("map_violations", m.mapViolations);
        if (m.profile.enabled) {
            w.beginObject("profile");
            w.field("wall_ns", m.profile.wallNs);
            w.field("attributed_ns", m.profile.attributedNs());
            w.field("verdict", m.profile.verdict);
            w.beginArray("phases");
            for (const auto &p : m.profile.phaseTotals) {
                w.beginObject();
                w.field("name", p.name);
                w.field("ns", p.ns);
                w.field("count", p.count);
                w.endObject();
            }
            w.endArray();
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    w.finish();
}

/**
 * Pull "events_per_sec" for run @p name out of a perf_smoke JSON
 * recording by text scan (the file is our own writer's output, so
 * the key order is fixed). @return negative when not found.
 */
double
baselineEventsPerSec(const std::string &text, const std::string &name)
{
    const std::string anchor = "\"name\": \"" + name + "\"";
    const auto at = text.find(anchor);
    if (at == std::string::npos)
        return -1.0;
    const std::string key = "\"events_per_sec\": ";
    const auto k = text.find(key, at);
    if (k == std::string::npos)
        return -1.0;
    return std::strtod(text.c_str() + k + key.size(), nullptr);
}

/**
 * Enforce --min-ratio against a baseline recording; fatal on any run
 * that regressed below it. A missing baseline file is fatal too — CI
 * passing a bad path must not silently skip the assertion.
 */
void
enforceBaseline(const std::string &path, double min_ratio,
                const std::vector<Measurement> &all)
{
    std::ifstream is(path);
    if (!is)
        SLACKSIM_FATAL("perf_smoke: cannot read baseline ", path);
    std::stringstream buf;
    buf << is.rdbuf();
    const std::string text = buf.str();

    bool any = false;
    for (const Measurement &m : all) {
        const double base = baselineEventsPerSec(text, m.name);
        if (base <= 0.0) {
            std::cout << "baseline: no '" << m.name << "' run in "
                      << path << "; skipped\n";
            continue;
        }
        any = true;
        const double ratio = m.eventsPerSec() / base;
        std::cout << "baseline: " << m.name << " "
                  << static_cast<std::uint64_t>(m.eventsPerSec())
                  << " vs " << static_cast<std::uint64_t>(base)
                  << " events/s (ratio " << ratio << ", floor "
                  << min_ratio << ")\n";
        if (ratio < min_ratio) {
            SLACKSIM_FATAL("perf_smoke: '", m.name, "' regressed to ",
                           ratio, "x of baseline (floor ", min_ratio,
                           "x); the disabled fault layer must stay "
                           "zero-cost");
        }
    }
    if (!any)
        SLACKSIM_FATAL("perf_smoke: baseline ", path,
                       " matched none of the runs");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    checkFlags(opts, "perf_smoke: engine hot-path throughput recorder",
               {{"repeat", "N", "runs per config; best wall time kept"},
                {"out", "PATH", "JSON output path (BENCH_perf.json)"},
                {"baseline", "PATH",
                 "earlier recording to enforce --min-ratio against"},
                {"min-ratio", "R",
                 "fail if events/s falls below R x baseline "
                 "(default 0.5)"},
                {"min-parallel-serial-ratio", "R",
                 "fail if bounded parallel events/s falls below R x "
                 "the serial control"},
                {"host-threads", "LIST",
                 "also sweep bounded runs at these engine host-thread "
                 "counts, e.g. 1,2,4 (0 = auto)"}});
    const std::string kernel = opts.get("kernel", "uniform");
    const std::uint64_t uops = uopBudget(opts, 200000);
    const std::uint64_t repeat = opts.getUint("repeat", 3);
    const std::string out = opts.get("out", "BENCH_perf.json");
    banner("perf_smoke: hot-path throughput (best of " +
               std::to_string(repeat) + ")",
           opts, uops);

    std::vector<SmokeRun> runs;
    {
        // The canonical bounded-slack micro workload: the manager
        // services events eagerly in arrival order while the queue /
        // pacing plumbing carries the full event volume. Bounded runs
        // are cheap per uop, so they get a bigger budget for stable
        // wall times.
        SimConfig c = microConfig(opts, kernel, uops * 5);
        c.engine.scheme = SchemeKind::Bounded;
        c.engine.slackBound = 64;
        runs.push_back({"bounded-micro", c});
    }
    {
        // Sorted-service stress: cycle-by-cycle keeps every event in
        // the manager's merge structure before release.
        SimConfig c = microConfig(opts, kernel, uops);
        c.engine.scheme = SchemeKind::CycleByCycle;
        runs.push_back({"cc-sorted", c});
    }
    {
        // Serial reference engine on the same bounded workload: the
        // no-threads control group for the two runs above.
        SimConfig c = microConfig(opts, kernel, uops * 5);
        c.engine.scheme = SchemeKind::Bounded;
        c.engine.slackBound = 64;
        c.engine.parallelHost = false;
        runs.push_back({"bounded-serial", c});
    }
    {
        // Checkpoint turnover: adaptive + speculative checkpoints at
        // a short interval so serialization cost dominates; tracks
        // the paper's Tcpt term (checkpoint bytes/s).
        SimConfig c = microConfig(opts, kernel, uops);
        c.engine.scheme = SchemeKind::Adaptive;
        c.engine.checkpoint.mode = CheckpointMode::Speculative;
        c.engine.checkpoint.interval = 2000;
        runs.push_back({"spec-ckpt", c});
    }
    if (opts.has("host-threads")) {
        // Host-topology sweep: the same bounded workload pinned at
        // each requested engine thread count. "bounded-ht1" is the
        // inline manager-only engine; the honest head-to-head against
        // "bounded-serial" on a small CI box.
        std::stringstream list(opts.get("host-threads"));
        std::string tok;
        while (std::getline(list, tok, ',')) {
            if (tok.empty())
                continue;
            const std::uint32_t ht = static_cast<std::uint32_t>(
                std::strtoul(tok.c_str(), nullptr, 10));
            SimConfig c = microConfig(opts, kernel, uops * 5);
            c.engine.scheme = SchemeKind::Bounded;
            c.engine.slackBound = 64;
            c.engine.hostThreads = ht;
            runs.push_back({"bounded-ht" + std::to_string(ht), c});
        }
    }

    // Interleave the repeats so host-load drift is shared fairly
    // across configs instead of biasing whichever ran last.
    std::vector<Measurement> all(runs.size());
    for (std::uint64_t round = 0; round < repeat; ++round)
        for (std::size_t i = 0; i < runs.size(); ++i)
            measureOnce(runs[i], round, &all[i]);
    for (const Measurement &m : all) {
        std::cout << m.name << ": " << m.wallSeconds << " s, "
                  << static_cast<std::uint64_t>(m.eventsPerSec())
                  << " events/s, "
                  << static_cast<std::uint64_t>(m.uopsPerSec())
                  << " uops/s, " << m.hostThreadsUsed
                  << " host-thread"
                  << (m.hostThreadsUsed == 1 ? "" : "s");
        if (m.checkpoints) {
            std::cout << ", "
                      << static_cast<std::uint64_t>(
                             m.checkpointBytesPerSec())
                      << " ckpt-B/s";
        }
        std::cout << "\n";
        if (m.profile.enabled) {
            // Host time per phase for the kept (best) repetition,
            // as a share of *total thread-time* (phase totals sum
            // across every worker thread, so wall is the wrong
            // denominator on parallel hosts); sub-0.5% phases are
            // noise at smoke-run durations.
            double total = 0.0;
            for (const auto &p : m.profile.phaseTotals)
                total += static_cast<double>(p.ns);
            for (const auto &p : m.profile.phaseTotals) {
                if (total <= 0.0 ||
                    static_cast<double>(p.ns) < total * 0.005)
                    continue;
                std::cout << "    " << p.name << ": "
                          << static_cast<double>(p.ns) / 1e6
                          << " ms (" << 100.0 *
                                 static_cast<double>(p.ns) / total
                          << "% of host thread-time)\n";
            }
            std::cout << "    " << m.profile.verdict << "\n";
        }
    }

    if (opts.has("min-parallel-serial-ratio")) {
        const double floor = opts.getDouble("min-parallel-serial-ratio",
                                            1.0);
        std::size_t par = all.size(), ser = all.size();
        for (std::size_t i = 0; i < all.size(); ++i) {
            if (all[i].name == "bounded-micro")
                par = i;
            if (all[i].name == "bounded-serial")
                ser = i;
        }
        if (par == all.size() || ser == all.size() ||
            all[ser].eventsPerSec() <= 0.0)
            SLACKSIM_FATAL("perf_smoke: parallel/serial gate needs "
                           "both bounded runs");
        // Best-of comparisons on a noisy shared host can land a few
        // percent either side of the true ratio; when the gate would
        // fail, grant up to two extra interleaved rounds to *both*
        // sides (still best-of, still fair) before judging.
        double ratio =
            all[par].eventsPerSec() / all[ser].eventsPerSec();
        for (std::uint64_t retry = 0; ratio < floor && retry < 2;
             ++retry) {
            std::cout << "parallel/serial: " << ratio
                      << " below floor; tiebreak round "
                      << (retry + 1) << "\n";
            measureOnce(runs[par], repeat + retry, &all[par]);
            measureOnce(runs[ser], repeat + retry, &all[ser]);
            ratio = all[par].eventsPerSec() / all[ser].eventsPerSec();
        }
        std::cout << "parallel/serial: " << ratio << " (floor " << floor
                  << ")\n";
        if (ratio < floor) {
            SLACKSIM_FATAL("perf_smoke: bounded parallel delivered ",
                           ratio, "x the serial control (floor ", floor,
                           "x); the parallel engine must not lose to "
                           "the serial one");
        }
    }

    std::ofstream os(out);
    if (!os)
        SLACKSIM_FATAL("perf_smoke: cannot write ", out);
    writeJson(os, kernel, uops, repeat, all);
    std::cout << "wrote " << out << "\n";

    if (opts.has("baseline")) {
        enforceBaseline(opts.get("baseline"),
                        opts.getDouble("min-ratio", 0.5), all);
    }
    return 0;
}
