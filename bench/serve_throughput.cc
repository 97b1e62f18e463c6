/**
 * @file
 * Serve-throughput harness: jobs/minute for a micro job sweep run two
 * ways — submitted to an in-process job server (persistent worker
 * pool, concurrent scheduling under the host-thread budget) versus
 * the pre-serve workflow of one sequential standalone run per job
 * (fresh engine threads spawned and joined every time).
 *
 * This is the amortization story behind `slacksim-serve`: parameter
 * sweeps pay the engine's thread spawn/join and setup cost per run,
 * while the daemon reuses one set of pooled host threads and overlaps
 * jobs up to the budget. The harness records both rates and the
 * speedup so the bench trajectory (BENCH_perf.json and friends)
 * carries the delta per PR.
 *
 * JSON schema:
 *   {
 *     "schema": "slacksim.serve_throughput.v3",
 *     "jobs": N, "uops": U, "cores": C, "pool_threads": T,
 *     "isolation": "inline" | "process",
 *     "sequential": { "wall_seconds", "jobs_per_min",
 *                     "threads_spawned" },
 *     "daemon":     { "wall_seconds", "jobs_per_min",
 *                     "threads_spawned", "tasks_run",
 *                     "overflow_spawns",
 *                     "queue_wait_ms":     { count, p50, p95, p99 },
 *                     "run_duration_ms":   { count, p50, p95, p99 },
 *                     "spawn_overhead_ms": { count, p50, p95, p99 },
 *                     "spawn_to_first_heartbeat_ms":
 *                                          { count, p50, p95, p99 } },
 *     "speedup": S
 *   }
 *
 * "threads_spawned" is the reuse proof: the sequential column grows
 * linearly with the job count (the workers each run launches,
 * JobSpec::hostThreads() - 1), the daemon column is the pool size
 * regardless of how many jobs ran.
 *
 * --isolation=process runs every daemon job in a forked supervised
 * child (the crash-proof production default); "spawn_overhead_ms"
 * then carries the fork-to-ready latency distribution, which is the
 * isolation tax EXPERIMENTS.md tracks (zero count under inline mode —
 * disabled isolation costs nothing).
 *
 * Flags: --jobs=N --uops=N --kernel=NAME --cores=N --threads=N
 *        --isolation=MODE --out=PATH
 */

#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "util/json.hh"
#include "util/logging.hh"

using namespace slacksim;
using namespace slacksim::bench;
using namespace slacksim::serve;

namespace {

double
seconds(std::chrono::steady_clock::time_point from,
        std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

double
jobsPerMin(std::uint64_t jobs, double wall_seconds)
{
    return wall_seconds > 0.0
               ? static_cast<double>(jobs) * 60.0 / wall_seconds
               : 0.0;
}

/**
 * The sweep: one spec per (seed, quantum) point. Both modes commit
 * the same uop budget per job, so jobs/minute compares equal amounts
 * of simulated work.
 */
std::vector<JobSpec>
makeSweep(std::uint64_t jobs, const std::string &kernel,
          std::uint32_t cores, std::uint64_t uops)
{
    std::vector<JobSpec> sweep;
    for (std::uint64_t i = 0; i < jobs; ++i) {
        JobSpec spec;
        spec.name = "sweep-" + std::to_string(i);
        spec.kernel = kernel;
        spec.cores = cores;
        spec.scheme = "quantum";
        spec.quantum = 8 + 8 * static_cast<std::uint32_t>(i % 4);
        spec.seed = 100 + i;
        spec.maxUops = uops;
        sweep.push_back(spec);
    }
    return sweep;
}

/** Baseline: the sweep as N standalone runs, one after another, each
 *  spawning and joining its own engine threads. */
double
runSequential(const std::vector<JobSpec> &sweep)
{
    const auto t0 = std::chrono::steady_clock::now();
    for (const JobSpec &spec : sweep)
        runSimulation(spec.toConfig());
    return seconds(t0, std::chrono::steady_clock::now());
}

/** The sweep through a live daemon: submit every spec over the
 *  socket, then wait for the queue to drain. */
double
runDaemon(Server &server, const std::vector<JobSpec> &sweep)
{
    Client client(server.options().socketPath);
    if (!client.valid())
        SLACKSIM_FATAL("serve_throughput: cannot connect to ",
                       server.options().socketPath);

    const auto t0 = std::chrono::steady_clock::now();
    for (const JobSpec &spec : sweep) {
        std::string error;
        if (client.submit(spec.toJson(), &error) == 0)
            SLACKSIM_FATAL("serve_throughput: submit failed: ", error);
    }
    // All submitted; the wall clock stops when the last job retires.
    while (!server.queue().idle())
        server.queue().waitChanged(20);
    return seconds(t0, std::chrono::steady_clock::now());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    checkFlags(opts,
               "serve_throughput: daemon vs sequential sweep rate",
               {{"jobs", "N", "sweep size (default 32)"},
                {"threads", "N",
                 "daemon host-thread budget (default 2x(cores+1))"},
                {"isolation", "MODE",
                 "daemon job execution: inline|process "
                 "(default inline)"},
                {"out", "PATH", "JSON output (BENCH_serve.json)"}});
    const std::uint64_t jobs = opts.getUint("jobs", 32);
    const std::string kernel = opts.get("kernel", "uniform");
    const std::uint32_t cores =
        static_cast<std::uint32_t>(opts.getUint("cores", 4));
    const std::uint64_t uops = uopBudget(opts, 40000);
    // Default budget fits two concurrent jobs even at one worker per
    // core: enough to show overlap without oversubscribing small hosts.
    const std::uint32_t threads = static_cast<std::uint32_t>(
        opts.getUint("threads", 2 * (cores + 1)));
    const std::string isolation = opts.get("isolation", "inline");
    if (isolation != "inline" && isolation != "process")
        SLACKSIM_FATAL("serve_throughput: --isolation must be "
                       "'inline' or 'process', got '",
                       isolation, "'");
    const std::string out = opts.get("out", "BENCH_serve.json");
    setQuietLogging(!opts.has("verbose"));
    banner("serve_throughput: " + std::to_string(jobs) +
               "-job micro sweep, daemon vs sequential",
           opts, uops);

    const std::vector<JobSpec> sweep =
        makeSweep(jobs, kernel, cores, uops);

    const double seq_seconds = runSequential(sweep);
    // Each standalone parallel-host run spawns its own worker threads.
    std::uint64_t seq_threads = 0;
    for (const JobSpec &spec : sweep)
        seq_threads += spec.hostThreads() - 1;
    std::cout << "sequential: " << seq_seconds << " s, "
              << jobsPerMin(jobs, seq_seconds) << " jobs/min ("
              << seq_threads << " threads spawned)\n";

    Server::Options sopts;
    sopts.socketPath = "serve_throughput.sock";
    sopts.outRoot = "serve_throughput_out";
    sopts.threadBudget = threads;
    sopts.defaultIsolation = isolation;
    Server server(sopts);
    if (!server.start())
        SLACKSIM_FATAL("serve_throughput: cannot bind ",
                       sopts.socketPath);
    std::thread accept_thread([&server] { server.run(); });

    const double srv_seconds = runDaemon(server, sweep);
    const double speedup =
        srv_seconds > 0.0 ? seq_seconds / srv_seconds : 0.0;
    std::cout << "daemon:     " << srv_seconds << " s, "
              << jobsPerMin(jobs, srv_seconds) << " jobs/min ("
              << server.pool().threadsSpawned() << " threads spawned, "
              << server.pool().tasksRun() << " pool tasks)\n"
              << "speedup:    " << speedup << "x\n";

    {
        Client control(sopts.socketPath);
        std::string error;
        if (!control.shutdown(true, &error))
            SLACKSIM_WARN("serve_throughput: shutdown op failed: ",
                          error);
    }
    accept_thread.join();

    const QueueStats stats = server.queue().stats();
    if (stats.done != jobs) {
        SLACKSIM_FATAL("serve_throughput: expected ", jobs,
                       " done jobs, got ", stats.done, " (",
                       stats.failed, " failed)");
    }
    if (server.pool().overflowSpawns() != 0) {
        SLACKSIM_FATAL("serve_throughput: governed sweep must not "
                       "overflow the pool (saw ",
                       server.pool().overflowSpawns(), ")");
    }

    std::ofstream os(out);
    if (!os)
        SLACKSIM_FATAL("serve_throughput: cannot write ", out);
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "slacksim.serve_throughput.v3");
    w.field("jobs", jobs);
    w.field("uops", uops);
    w.field("cores", cores);
    w.field("pool_threads", static_cast<std::uint64_t>(threads));
    w.field("isolation", isolation);
    w.beginObject("sequential");
    w.field("wall_seconds", seq_seconds);
    w.field("jobs_per_min", jobsPerMin(jobs, seq_seconds));
    w.field("threads_spawned", seq_threads);
    w.endObject();
    w.beginObject("daemon");
    w.field("wall_seconds", srv_seconds);
    w.field("jobs_per_min", jobsPerMin(jobs, srv_seconds));
    w.field("threads_spawned", server.pool().threadsSpawned());
    w.field("tasks_run", server.pool().tasksRun());
    w.field("overflow_spawns", server.pool().overflowSpawns());
    // Fleet latency distribution under the sweep load: how long jobs
    // queued behind the budget and how long they ran (bucketed
    // percentiles from the server's own telemetry registry).
    const ServerTelemetry &tel = server.telemetry();
    w.beginObject("queue_wait_ms");
    w.field("count", tel.queueWaitMs.count());
    w.field("p50", tel.queueWaitMs.percentile(50));
    w.field("p95", tel.queueWaitMs.percentile(95));
    w.field("p99", tel.queueWaitMs.percentile(99));
    w.endObject();
    w.beginObject("run_duration_ms");
    w.field("count", tel.runDurationMs.count());
    w.field("p50", tel.runDurationMs.percentile(50));
    w.field("p95", tel.runDurationMs.percentile(95));
    w.field("p99", tel.runDurationMs.percentile(99));
    w.endObject();
    // The isolation tax: fork-to-ready latency per supervised child.
    // Count is zero under inline mode — proof the feature is free
    // when disabled.
    w.beginObject("spawn_overhead_ms");
    w.field("count", tel.spawnOverheadMs.count());
    w.field("p50", tel.spawnOverheadMs.percentile(50));
    w.field("p95", tel.spawnOverheadMs.percentile(95));
    w.field("p99", tel.spawnOverheadMs.percentile(99));
    w.endObject();
    // Fork until the scheduler first observed the child simulating —
    // the operator-facing spawn latency (fork + exec + engine warmup
    // + first progress report), superset of spawn_overhead_ms. Also
    // zero-count under inline mode.
    w.beginObject("spawn_to_first_heartbeat_ms");
    w.field("count", tel.spawnToFirstHeartbeatMs.count());
    w.field("p50", tel.spawnToFirstHeartbeatMs.percentile(50));
    w.field("p95", tel.spawnToFirstHeartbeatMs.percentile(95));
    w.field("p99", tel.spawnToFirstHeartbeatMs.percentile(99));
    w.endObject();
    w.endObject();
    w.field("speedup", speedup);
    w.endObject();
    w.finish();
    std::cout << "wrote " << out << "\n";
    return 0;
}
