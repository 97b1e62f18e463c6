/**
 * @file
 * Process isolation for serve jobs: run one simulation in a forked,
 * supervised, resource-limited child (DESIGN.md §14).
 *
 * The in-process job body is the daemon's biggest blast radius — one
 * SIGSEGV or OOM inside engine code kills every co-running job and
 * the queue with it. runIsolatedJob() moves the simulation into a
 * fork()ed child, so the worst a job can do is kill itself:
 *
 *   parent (pool task)                    child
 *   ------------------                    -----
 *   fork ────────────────────────────────▶ setrlimit(AS/CPU)
 *   read ready byte (spawn latency)  ◀──── write 'R' on status pipe
 *   poll: waitpid + progress relay   ◀──── runSimulation() publishes
 *     + cancel -> 'C' on control pipe      into a MAP_SHARED progress
 *       -> SIGKILL after grace             page; a watcher thread
 *   waitpid verdict             ◀───────── turns 'C' into a local
 *     exit 0 + status line -> Ok/Cancelled CancelToken fire
 *     signal (not ours)    -> Crashed ◀─── status JSON line, _exit(0)
 *     anything else        -> Failed
 *
 * Results flow back through two channels: the child writes its own
 * run report / trace / metrics into the per-job out-dir exactly as an
 * inline job would (the paths are in the SimConfig), and the final
 * status pipe line carries the RunResult aggregates the server needs
 * for telemetry. A crashed child leaves no status line — the caller
 * gets the signal number and writes a stub crash report instead.
 *
 * fork() from a multithreaded daemon is safe here because the child
 * calls only async-signal-unsafe functions *after* glibc's atfork
 * handlers have reset the allocator locks, and never touches the
 * parent's worker pool, sockets or scheduler state (runner is forced
 * to nullptr so the engine spawns its own threads).
 */

#ifndef SLACKSIM_SERVE_SUPERVISOR_HH
#define SLACKSIM_SERVE_SUPERVISOR_HH

#include <cstdint>

#include "core/config.hh"
#include "obs/progress.hh"
#include "util/cancel.hh"

namespace slacksim {
namespace serve {

/** Resource limits applied to the child before it simulates. */
struct IsolationLimits
{
    std::uint64_t memMb = 0;    //!< RLIMIT_AS in MiB (0 = none)
    std::uint64_t cpuSeconds = 0; //!< RLIMIT_CPU (0 = none)
    /** Cancel-to-SIGKILL escalation window: after a cancel request
     *  the child gets this long to drain cooperatively before the
     *  supervisor kills it. */
    std::uint64_t killGraceMs = 5000;
};

/** The supervisor's verdict on one isolated job. */
struct SupervisedResult
{
    enum class Status : std::uint8_t {
        Ok,        //!< ran to completion, aggregates valid
        Cancelled, //!< cooperative cancel (or our kill escalation)
        Crashed,   //!< child died by a signal we did not send
        Failed,    //!< child exited nonzero / fork or pipe failure
    };

    Status status = Status::Failed;
    int exitCode = 0; //!< child exit code (status Failed)
    /** Fatal signal: status Crashed, or Cancelled by our kill after
     *  the cancel grace (0 otherwise). */
    int signal = 0;
    /** RunResult aggregates relayed over the status pipe (valid for
     *  Ok and Cancelled). */
    std::uint64_t committedUops = 0;
    std::uint64_t simulatedCycles = 0;
    std::uint64_t faultInjections = 0;
    std::uint64_t demotions = 0;
    /** fork-to-ready latency (ms) — the isolation overhead the bench
     *  and telemetry track. */
    double spawnMs = 0.0;
    /** The forked child's real pid (0 when the fork never happened).
     *  The fleet-trace merger keys the job's engine tracks on it. */
    int childPid = 0;
    /** Human-readable failure detail ("" when status == Ok). */
    std::string error;
};

/** @return printable status name ("ok", "cancelled", ...). */
const char *supervisedStatusName(SupervisedResult::Status status);

/**
 * Run @p config in a forked supervised child.
 *
 * @param config   fully-built job config; obs paths must point into
 *                 the per-job out-dir. The child overrides `runner`
 *                 (no pool sharing across the fork) and `cancel`
 *                 (replaced by the control-pipe watcher).
 * @param limits   rlimits + kill escalation grace.
 * @param cancel   the job's server-side token; polled by the parent
 *                 and relayed to the child over the control pipe.
 *                 Nullable.
 * @param progress the job's live progress mailbox; the parent copies
 *                 the child's shared-page snapshots into it so watch
 *                 streams keep updating across the process boundary.
 *                 Nullable.
 */
SupervisedResult runIsolatedJob(const SimConfig &config,
                                const IsolationLimits &limits,
                                CancelToken *cancel,
                                obs::RunProgress *progress);

} // namespace serve
} // namespace slacksim

#endif // SLACKSIM_SERVE_SUPERVISOR_HH
