/**
 * @file
 * Multi-tenant job queue with priority scheduling and resource-budget
 * admission control.
 *
 * The queue is the server's single source of truth for job state. It
 * is deliberately passive — no threads of its own — so the scheduler
 * loop (serve/server.cc) and the unit tests drive exactly the same
 * code: submit() enqueues, admitNext() picks what runs next under the
 * current budgets, markFinished() retires.
 *
 * Scheduling policy:
 *  - strict priority (7 highest .. 0 lowest),
 *  - FIFO within a priority level (submission order),
 *  - first-fit backfill: a job that does not fit the remaining
 *    host-thread or memory budget is skipped, and later (lower-rank)
 *    jobs that do fit may start ahead of it. The skipped job keeps
 *    its rank and runs as soon as the budget frees up — big jobs are
 *    delayed, never starved, because backfilled jobs can only consume
 *    budget the big job could not use anyway.
 *
 * Cancellation: a queued job cancels instantly (terminal state, never
 * ran); a running job gets its CancelToken fired and reaches the
 * Cancelled state when the engine returns its partial result. The
 * scheduler uses the same token for per-job timeouts; checkDeadlines()
 * distinguishes the two via the timedOut flag.
 *
 * Jobs are never erased, so Job pointers handed out by get() stay
 * valid for the queue's lifetime; mutable fields are protected by the
 * queue mutex except the CancelToken (internally synchronized).
 */

#ifndef SLACKSIM_SERVE_JOB_QUEUE_HH
#define SLACKSIM_SERVE_JOB_QUEUE_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/progress.hh"
#include "serve/job_spec.hh"
#include "serve/telemetry.hh"
#include "util/cancel.hh"

namespace slacksim {
namespace serve {

/** Job lifecycle. Queued/Running are live; the rest are terminal. */
enum class JobState : std::uint8_t {
    Queued,
    Running,
    Done,      //!< ran to completion
    Failed,    //!< could not run (setup error after admission)
    Cancelled, //!< client cancel or shutdown drain
    TimedOut,  //!< per-job deadline fired
    Crashed,   //!< isolated child died by signal (supervisor verdict)
};

/** @return printable state name ("queued", "running", ...). */
const char *jobStateName(JobState state);

/** @return true for states no transition can leave. */
bool isTerminal(JobState state);

/** One job owned by the queue. */
struct Job
{
    std::uint64_t id = 0;
    JobSpec spec;
    /** spec.hostThreads(), resolved once at submit: admission checks,
     *  reserves and releases this same value. */
    std::uint32_t hostThreads = 1;
    JobState state = JobState::Queued;
    std::string error;  //!< reason for Failed
    std::string outDir; //!< per-job output directory (set at admit)
    bool timedOut = false; //!< deadline (not client) fired the token
    /** Fired on client cancel, timeout, or shutdown. */
    std::unique_ptr<CancelToken> cancel =
        std::make_unique<CancelToken>();
    /** Live progress mailbox the engine's sampler publishes into
     *  (wired via ObsConfig::progress). Owned here because Job
     *  pointers are stable for the queue's lifetime. */
    std::unique_ptr<obs::RunProgress> progress =
        std::make_unique<obs::RunProgress>();
    std::chrono::steady_clock::time_point submittedAt;
    std::chrono::steady_clock::time_point startedAt;
    std::chrono::steady_clock::time_point endedAt;
    /** Result summary for status/stats (valid once terminal). */
    std::uint64_t committedUops = 0;
    std::uint64_t simulatedCycles = 0;
    /** Client-chosen dedup key; "" when the client sent none. A
     *  resubmission carrying the same key maps to this job instead
     *  of double-running (journal recovery relies on it too). */
    std::string idempotencyKey;
    /** 1-based try counter; > 1 only for jobs the journal replayer
     *  re-admitted after they were running at daemon-crash time. */
    std::uint32_t attempt = 1;
    int crashSignal = 0; //!< signal that killed the child (Crashed)
    /** Monotonic per-job transition counter (submitted=1); watch
     *  events carry it so a reconnecting client can resume from the
     *  last seq it saw without replaying duplicates. */
    std::uint64_t stateSeq = 1;
    /** Distributed-trace id (client-supplied or minted at submit);
     *  mirrored into spec.traceId so the journaled spec carries it
     *  through crash recovery. */
    std::string traceId;
    /** Root span id of the server-side lifecycle span; the engine
     *  span nests under it (ObsConfig::parentSpanId). */
    std::uint64_t rootSpanId = 0;
};

/** Copyable job snapshot for status reporting. */
struct JobView
{
    std::uint64_t id = 0;
    std::string name;
    std::string kernel;
    JobState state = JobState::Queued;
    std::uint32_t priority = 0;
    std::uint32_t hostThreads = 0;
    std::string error;
    std::string outDir;
    bool timedOut = false;
    std::uint64_t committedUops = 0;
    std::uint64_t simulatedCycles = 0;
    std::uint32_t attempt = 1;
    int crashSignal = 0;
    std::uint64_t stateSeq = 1;
    double queueMs = 0.0; //!< submit -> start (or now while queued)
    double runMs = 0.0;   //!< start -> end (or now while running)
    std::string scheme;   //!< configured slack scheme
    /** Live heartbeat snapshot (all zero until the first epoch
     *  sample lands; meaningful while Running). */
    obs::RunProgress::Snapshot progress;
};

/** Aggregate counters for the stats op and the server report. */
struct QueueStats
{
    std::uint64_t submitted = 0;
    std::uint64_t queued = 0;
    std::uint64_t running = 0;
    std::uint64_t done = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t timedOut = 0;
    std::uint64_t crashed = 0;
};

class JobQueue
{
  public:
    JobQueue() = default;
    JobQueue(const JobQueue &) = delete;
    JobQueue &operator=(const JobQueue &) = delete;

    /**
     * Attach the server's telemetry registry and lifecycle event log
     * (both nullable, both must outlive the queue). The queue is the
     * single place job-state transitions happen, so it is also the
     * single feed point for submit/admit/retire instrumentation —
     * the scheduler loop and the unit tests exercise identical
     * accounting.
     */
    void setTelemetry(ServerTelemetry *telemetry, EventLog *events);

    /**
     * Enqueue a validated spec; @return the new job id (>= 1).
     * @p idempotencyKey ("" = none) deduplicates: when a live or
     * terminal job already carries the key, no new job is created
     * and its id is returned with @p *duplicate (nullable) set.
     * @p attempt is the 1-based try counter the journal replayer
     * passes for retried jobs (fresh submissions pass 1).
     */
    std::uint64_t submit(JobSpec spec,
                         const std::string &idempotencyKey = "",
                         std::uint32_t attempt = 1,
                         bool *duplicate = nullptr);

    /**
     * Pick the next job to run under the remaining budgets (see file
     * comment for the policy) and transition it Queued -> Running.
     * @return the admitted job, or nullptr when nothing fits.
     */
    Job *admitNext(std::uint32_t freeThreads, std::uint64_t freeMemMb);

    /**
     * Retire a Running job. @p state must be terminal; Cancelled is
     * upgraded to TimedOut when the deadline (not a client) fired the
     * token.
     */
    void markFinished(std::uint64_t id, JobState state,
                      const std::string &error = "");

    /**
     * Retire a Running job whose isolated child died by @p signal.
     * Like markFinished but lands in Crashed and records the signal
     * for the jobs_crashed{signal=} telemetry family.
     */
    void markCrashed(std::uint64_t id, int signal,
                     const std::string &error);

    /** Record result aggregates on a finished job. */
    void recordResult(std::uint64_t id, std::uint64_t committedUops,
                      std::uint64_t simulatedCycles);

    /** Record the per-job output directory (set at admission). */
    void setOutDir(std::uint64_t id, const std::string &dir);

    /**
     * Cancel a job. Queued: terminal immediately. Running: fires the
     * token; the job stays Running until the engine hands back its
     * partial result. @return false (with @p *error set) when the id
     * is unknown or already terminal.
     */
    bool requestCancel(std::uint64_t id, std::string *error);

    /** Fire the deadline of every Running job whose timeout_ms has
     *  elapsed; marks them timedOut. @return jobs newly fired. */
    std::uint32_t checkDeadlines();

    /** Cancel every Queued job (shutdown without drain). */
    void cancelQueued();

    /** Fire every Running job's token (shutdown deadline). */
    void cancelRunning();

    /** @return the job, or nullptr. The pointer stays valid forever;
     *  lock-free access is limited to the CancelToken. */
    Job *get(std::uint64_t id);

    /** @return a snapshot of one job, or of all jobs (id 0), newest
     *  first. */
    std::vector<JobView> snapshot(std::uint64_t id = 0) const;

    QueueStats stats() const;

    /** @return true when no job is Queued or Running. */
    bool idle() const;

    /**
     * Block until the queue changes (submit/cancel/finish) or
     * @p timeoutMs elapses. The scheduler's wait primitive.
     */
    void waitChanged(int timeoutMs);

  private:
    JobView viewLocked(const Job &job) const;
    /** Retire @p job (must hold mu_): set the terminal state, stamp
     *  endedAt, feed the telemetry counters/histograms and append
     *  the lifecycle event. */
    void retireLocked(Job &job, JobState state,
                      const std::string &error);

    mutable std::mutex mu_;
    mutable std::condition_variable cv_;
    std::uint64_t nextId_ = 1;
    /** Jobs by id; never erased (pointer stability, audit trail). */
    std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
    /** Idempotency key -> job id for submit() deduplication. */
    std::map<std::string, std::uint64_t> keyToId_;
    ServerTelemetry *telemetry_ = nullptr; //!< nullable
    EventLog *events_ = nullptr;           //!< nullable
};

} // namespace serve
} // namespace slacksim

#endif // SLACKSIM_SERVE_JOB_QUEUE_HH
