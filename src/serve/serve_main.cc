/**
 * @file
 * slacksim-serve: the simulation-as-a-service daemon.
 *
 * Opens a Unix domain socket, accepts slacksim.job.v1 submissions,
 * and runs them on a persistent worker pool under a global host-
 * thread and memory budget (see serve/server.hh for the protocol).
 * SIGINT/SIGTERM stop accepting and drain the queue against
 * --drain-deadline-ms, then flush artifacts and exit; a second signal
 * escalates to cancel-everything. On shutdown the server report
 * (pool-reuse proof, job outcome counters) is written to
 * <out-root>/server_report.json.
 *
 * Every job carries a distributed-trace id from submit to simulated
 * cycle; `slacksim-submit --trace-fleet` (the `trace` wire op) merges
 * the journal, per-job Chrome traces and folded profiles under
 * <out-root> into one Perfetto-loadable fleet timeline.
 */

#include <atomic>
#include <csignal>
#include <string>
#include <vector>

#include "serve/server.hh"
#include "util/io.hh"
#include "util/logging.hh"
#include "util/options.hh"

namespace {

std::atomic<int> g_signal{0};

void
onSignal(int sig)
{
    // Second signal: skip the drain, cancel everything.
    g_signal.fetch_add(1, std::memory_order_relaxed);
    (void)sig;
}

const std::vector<slacksim::OptionSpec> kFlags = {
    {"socket", "PATH", "socket path (default slacksim.sock)"},
    {"out-root", "DIR",
     "per-job output directories live here (default serve-out)"},
    {"threads", "N",
     "global host-thread budget / pool size (default: hardware "
     "concurrency, at least 8)"},
    {"mem-budget-mb", "N",
     "global admission memory budget in MiB (default 16384)"},
    {"drain-deadline-ms", "N",
     "graceful-shutdown drain deadline (default 60000)"},
    {"isolation", "MODE",
     "default job isolation: process (daemon default; forked "
     "supervised child) or inline"},
    {"kill-grace-ms", "N",
     "cancel-to-SIGKILL escalation window for isolated jobs "
     "(default 5000)"},
    {"recover", "",
     "replay <out-root>/server_events.jsonl: re-admit journaled "
     "jobs that never reached a terminal state"},
    {"fault-spec", "SPEC",
     "daemon-side fault plan (e.g. daemon-kill-window@start:N) for "
     "recovery drills"},
    {"fault-seed", "N", "daemon fault plan seed (default 1)"},
    {"quiet", "", "suppress inform/warn output"},
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace slacksim;

    Options opts(argc, argv);
    opts.enforceKnown(
        "slacksim-serve: multi-tenant simulation job server", kFlags);
    if (opts.getBool("quiet", false))
        setQuietLogging(true);

    serve::Server::Options server_opts;
    server_opts.socketPath = opts.get("socket", "slacksim.sock");
    server_opts.outRoot = opts.get("out-root", "serve-out");
    server_opts.threadBudget =
        static_cast<std::uint32_t>(opts.getUint("threads", 0));
    server_opts.memBudgetMb = opts.getUint("mem-budget-mb", 16384);
    server_opts.drainDeadlineMs =
        opts.getUint("drain-deadline-ms", 60000);
    // The daemon defaults to process isolation: it is the deployment
    // that must survive arbitrary job crashes. (The Server class
    // default stays "inline" for embedders and tests.)
    server_opts.defaultIsolation = opts.get("isolation", "process");
    if (server_opts.defaultIsolation != "inline" &&
        server_opts.defaultIsolation != "process") {
        SLACKSIM_FATAL("--isolation must be 'inline' or 'process', "
                       "got '",
                       server_opts.defaultIsolation, "'");
    }
    server_opts.killGraceMs = opts.getUint("kill-grace-ms", 5000);
    server_opts.recover = opts.getBool("recover", false);
    server_opts.faultSpec = opts.get("fault-spec", "");
    server_opts.faultSeed = opts.getUint("fault-seed", 1);

    serve::Server server(server_opts);
    if (!server.start())
        SLACKSIM_FATAL("could not open ", server_opts.socketPath);

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    // A dying client mid-send must not kill the daemon; sends already
    // use MSG_NOSIGNAL, this covers any stray writes.
    std::signal(SIGPIPE, SIG_IGN);

    server.run(&g_signal);

    const std::string report_path =
        server_opts.outRoot + "/server_report.json";
    CheckedOfstream os(report_path, "server report");
    if (os.ok())
        server.writeServerReport(os.stream());
    // The report is the daemon's last word — fsync it so a host that
    // loses power right after shutdown still has it.
    os.sync();
    if (os.finish())
        SLACKSIM_INFORM("server report -> ", report_path);
    return 0;
}
