/**
 * @file
 * The slacksim job server: simulation-as-a-service over a Unix
 * domain socket.
 *
 * One daemon process hosts many simulations. Clients submit
 * `slacksim.job.v1` specs (serve/job_spec.hh) as newline-delimited
 * JSON frames; the server queues them (serve/job_queue.hh), admits
 * them under a global host-thread and memory budget, and runs each on
 * the persistent WorkerPool (serve/worker_pool.hh) — the engines'
 * worker threads are borrowed from the pool via EngineConfig::runner,
 * so thousands of jobs reuse one set of host threads instead of
 * paying a spawn/join per run.
 *
 * Wire protocol (one JSON object per line, both directions):
 *
 *   -> {"op": "submit", "spec": { ...slacksim.job.v1... }}
 *   <- {"ok": true, "id": 7}
 *   -> {"op": "status"}            (or {"op":"status","id":7})
 *   <- {"ok": true, "jobs": [{"id":7,"state":"running",...}, ...]}
 *   -> {"op": "cancel", "id": 7}
 *   <- {"ok": true}
 *   -> {"op": "watch", "id": 7}
 *   <- {"ok":true,"event":"state","state":"queued"}     (on change)
 *   <- {"ok":true,"event":"state","state":"running"}
 *   <- {"ok":true,"event":"progress","epochs":3,...}    (~1 Hz live)
 *   <- {"ok":true,"event":"report","json":"{...}"}      (terminal)
 *   <- {"ok":true,"event":"metrics","csv":"..."}
 *   <- {"ok":true,"event":"end","state":"done"}
 *   -> {"op": "stats"}
 *   <- {"ok": true, "pool": {...}, "queue": {...}, ...}
 *   -> {"op": "metrics"}
 *   <- {"ok": true, "text": "# HELP slacksim_... exposition ..."}
 *   -> {"op": "trace"}
 *   <- {"ok": true, "json": "{...merged fleet Chrome trace...}"}
 *   -> {"op": "shutdown", "drain": true}
 *   <- {"ok": true}
 *   Any failure: {"ok": false, "error": "one readable line"}
 *
 * Threading: the caller's thread runs the accept loop (run());
 * each connection gets a handler thread; one scheduler thread owns
 * admission, budget accounting, deadline checks and job reaping. Job
 * bodies execute as pool tasks. Shutdown (signal or shutdown op)
 * stops accepting, then either drains the queue against a deadline or
 * cancels everything, and always flushes per-job artifacts (cancelled
 * jobs still write their run report, marked "status": "cancelled").
 */

#ifndef SLACKSIM_SERVE_SERVER_HH
#define SLACKSIM_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault_plan.hh"
#include "serve/job_queue.hh"
#include "serve/supervisor.hh"
#include "serve/telemetry.hh"
#include "serve/worker_pool.hh"
#include "util/uds.hh"

namespace slacksim {
namespace serve {

class Server
{
  public:
    struct Options
    {
        std::string socketPath = "slacksim.sock";
        /** Per-job output directories live under here. */
        std::string outRoot = "serve-out";
        /** Global host-thread budget = worker pool size. 0 picks the
         *  host's hardware concurrency, at least 8. A job reserves
         *  JobSpec::hostThreads(), the threads its run launches. */
        std::uint32_t threadBudget = 0;
        /** Global admission memory budget (MiB). */
        std::uint64_t memBudgetMb = 16384;
        /** Drain deadline on graceful shutdown; running/queued jobs
         *  still live when it expires are cancelled. */
        std::uint64_t drainDeadlineMs = 60000;
        /** Where jobs whose spec leaves `isolation` empty execute:
         *  "inline" (pool thread, zero overhead — the library/test
         *  default) or "process" (forked supervised child — the
         *  daemon default; one crashing job cannot take the fleet
         *  down). */
        std::string defaultIsolation = "inline";
        /** Cancel-to-SIGKILL escalation window for isolated jobs. */
        std::uint64_t killGraceMs = 5000;
        /** Replay outRoot/server_events.jsonl at startup: re-admit
         *  journaled jobs that never reached a terminal state (see
         *  serve/journal.hh). */
        bool recover = false;
        /** Daemon-side fault plan (fault_plan.hh grammar) for
         *  recovery drills — daemon-kill-window lives here, never in
         *  client specs. */
        std::string faultSpec;
        std::uint64_t faultSeed = 1;
    };

    explicit Server(Options opts);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Open the socket and start the scheduler. @return false when
     *  the socket cannot be bound. */
    bool start();

    /**
     * Accept loop; returns after shutdown completes. @p stopSignal
     * (nullable) is polled between accepts — a nonzero value behaves
     * like a shutdown op with drain=true (the SIGINT/SIGTERM hook).
     */
    void run(const std::atomic<int> *stopSignal = nullptr);

    /** Stop accepting and begin shutdown; run() then drains (or
     *  cancels) and returns. Callable from any thread. */
    void requestShutdown(bool drain);

    /** Effective thread budget (pool size). */
    std::uint32_t threadBudget() const { return pool_->size(); }

    const WorkerPool &pool() const { return *pool_; }
    JobQueue &queue() { return queue_; }
    const Options &options() const { return opts_; }
    const ServerTelemetry &telemetry() const { return telemetry_; }
    const EventLog &events() const { return events_; }

    /** Emit the server-level report (pool reuse proof, queue
     *  outcome counters, budgets, telemetry summary, isolation and
     *  recovery sections) as JSON — schema
     *  slacksim.server_report.v4. */
    void writeServerReport(std::ostream &os) const;

  private:
    struct RunningJob
    {
        std::uint64_t id = 0;
        std::uint32_t threads = 0;
        std::uint64_t memMb = 0;
        std::unique_ptr<TaskRunner::Handle> handle;
        /** Last heartbeat event for this job (scheduler-only). */
        std::chrono::steady_clock::time_point lastBeat;
        /** When startJob handed the body to the pool; the base of
         *  spawn_to_first_heartbeat_ms. */
        std::chrono::steady_clock::time_point launchedAt;
        /** First progress heartbeat already observed (scheduler). */
        bool firstBeatSeen = false;
    };

    void schedulerMain();
    /** Replay the previous generation's journal (start() helper). */
    void recoverFromJournal();
    /** Join handles of terminal jobs, release their budget. */
    void reapFinished(bool joinAll);
    void startJob(Job *job);
    void jobBody(std::uint64_t id, const SimConfig &config);
    /** Process-isolated job body: supervise a forked child and map
     *  its verdict onto the queue (Crashed jobs leave the daemon and
     *  every sibling running). */
    void jobBodyIsolated(std::uint64_t id, const SimConfig &config,
                         const IsolationLimits &limits);
    /** Effective isolation mode for @p spec ("inline"/"process"). */
    std::string effectiveIsolation(const JobSpec &spec) const;
    /** Emit a heartbeat event (~1 Hz per job) for every Running job
     *  whose progress mailbox has data. Scheduler thread only. */
    void publishHeartbeats();
    /** Recompute the occupancy gauges from the queue, the pool and
     *  the budget reservations. Called right before any scrape
     *  (metrics op, stats op, server report). */
    void refreshGauges() const;

    void handleConn(UdsConn conn);
    /** @return false when the connection should close. */
    bool handleRequest(UdsConn &conn, const std::string &line);
    void handleWatch(UdsConn &conn, std::uint64_t id,
                     std::uint64_t fromSeq);
    bool sendError(UdsConn &conn, const std::string &error);

    Options opts_;
    std::unique_ptr<WorkerPool> pool_;
    JobQueue queue_;
    UdsListener listener_;

    std::atomic<bool> shutdownRequested_{false};
    std::atomic<bool> drain_{true};
    std::atomic<bool> handlersStop_{false};
    std::atomic<bool> schedulerStop_{false};

    /** Budget accounting; written by the scheduler thread only, read
     *  by handler threads for gauge scrapes (hence atomic). */
    std::atomic<std::uint32_t> reservedThreads_{0};
    std::atomic<std::uint64_t> reservedMemMb_{0};
    std::vector<RunningJob> running_;

    /** Fleet instruments; mutable so const scrapers can refresh the
     *  gauges (atomic writes, logically read-side). */
    mutable ServerTelemetry telemetry_;
    /** Lifecycle event log (outRoot/server_events.jsonl). */
    EventLog events_;

    /** Daemon-side fault plan (recovery drills); nullable. Fired by
     *  the scheduler at job-start ordinals, not thread-installed. */
    std::unique_ptr<fault::FaultPlan> daemonPlan_;
    std::atomic<std::uint64_t> jobsStarted_{0};

    /** Recovery bookkeeping (start()-time, read-only afterwards). */
    std::uint64_t recoveredCount_ = 0;
    std::uint64_t retriedCount_ = 0;
    std::string rotatedJournal_;

    std::thread scheduler_;
    std::mutex handlersMu_;
    std::vector<std::thread> handlers_;
    bool started_ = false;
};

} // namespace serve
} // namespace slacksim

#endif // SLACKSIM_SERVE_SERVER_HH
