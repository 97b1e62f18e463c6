/**
 * @file
 * Deterministic fault injection (DESIGN.md §9).
 *
 * A FaultPlan is a seeded, repeatable schedule of injected failures
 * built from `--fault-spec=<kind>@<site>:<trigger>[:args]` flags (or
 * the SLACKSIM_FAULT_SPEC / SLACKSIM_FAULT_SEED environment, which is
 * how the CI chaos matrix drives unmodified test binaries). Every
 * firing is recorded with the simulated cycle and, once the handling
 * layer reacts, *how* it was handled — so a test can assert "fault X
 * was injected at cycle Y and handled by Z" straight from the run
 * report.
 *
 * Grammar (specs may also be comma/semicolon-separated in one flag):
 *
 *   snapshot-corrupt@ckpt:N        flip one seeded bit in the Nth
 *                                  checkpoint's sealed arena
 *   snapshot-truncate@ckpt:N      truncate the Nth checkpoint arena
 *   spurious-rollback@ckpt:N      force a rollback right after the
 *                                  Nth checkpoint (speculative mode)
 *   child-kill@ckpt:N             fork tech: SIGKILL the child after
 *                                  the Nth fork checkpoint
 *   child-exit@ckpt:N             fork tech: child _exit()s nonzero
 *   worker-stall@cycle:N:MS[:C]   core C (default 0) sleeps MS host
 *                                  ms once its clock reaches N
 *   backpressure@cycle:N:COUNT    the manager skips COUNT service
 *                                  rounds once global time reaches N
 *   io-fail@write:N               the Nth checked file open fails
 *   job-crash@cycle:N             serve: SIGSEGV the job's own
 *                                  process once global time hits N
 *                                  (process-isolated jobs only)
 *   job-hang@cycle:N[:MS]         serve: wedge the manager MS host ms
 *                                  (default 600000) once global time
 *                                  hits N — the supervisor's timeout
 *                                  and kill escalation end it
 *   daemon-kill-window@start:N    serve: the daemon SIGKILLs itself
 *                                  when it starts its Nth job (the
 *                                  deterministic `kill -9` for the
 *                                  recovery drill; daemon flag only)
 *
 * The plan is installed per *host thread* for the duration of one
 * run: layers with no path to a per-run object (the I/O layer's
 * CheckedOfstream hook, the fork-checkpoint child) read the calling
 * thread's binding. runSimulation binds the plan on its own (manager)
 * thread and the engines re-bind it on every worker thread they
 * borrow, so in a multi-tenant serve process job A's faults can never
 * leak into job B's concurrently-running engine — which is exactly
 * what a process-global slot used to allow. The fork-checkpoint
 * child still sees the plan because fork() clones the calling thread
 * together with its thread-locals. When no plan is installed every
 * hook is one thread-local pointer load — the zero-cost-when-disabled
 * property perf_smoke asserts.
 */

#ifndef SLACKSIM_FAULT_FAULT_PLAN_HH
#define SLACKSIM_FAULT_FAULT_PLAN_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/rng.hh"
#include "util/types.hh"

namespace slacksim {
namespace fault {

/** Injectable failure kinds. */
enum class FaultKind : std::uint8_t {
    SnapshotCorrupt,  //!< bit-flip in a sealed checkpoint arena
    SnapshotTruncate, //!< drop the tail of a checkpoint arena
    SpuriousRollback, //!< rollback with no violation behind it
    ChildKill,        //!< fork checkpoint child dies by SIGKILL
    ChildExit,        //!< fork checkpoint child exits nonzero
    WorkerStall,      //!< a core worker wedges for N host ms
    Backpressure,     //!< manager stops servicing, queues fill
    IoFail,           //!< transient open failure in a file writer
    JobCrash,         //!< serve: the job's process dies by SIGSEGV
    JobHang,          //!< serve: the job's manager wedges for N ms
    DaemonKillWindow, //!< serve: daemon SIGKILLs itself at job start N
};

/** @return stable spec-grammar name for a fault kind. */
const char *faultKindName(FaultKind kind);

/** One parsed `--fault-spec` entry. */
struct FaultSpec
{
    FaultKind kind = FaultKind::SnapshotCorrupt;
    std::uint64_t trigger = 0; //!< checkpoint ordinal / cycle / open #
    std::uint64_t arg0 = 0;    //!< stall ms / skipped service rounds
    std::uint64_t arg1 = 0;    //!< stall core id
};

/** One fault that actually fired. */
struct InjectionRecord
{
    FaultKind kind = FaultKind::SnapshotCorrupt;
    std::uint64_t trigger = 0;
    Tick cycle = 0;       //!< simulated time at injection (0: none)
    std::string detail;   //!< what exactly was injected
    std::string handledBy; //!< which layer contained it
};

/**
 * The seeded fault schedule for one run. Thread-safe: worker-stall
 * fires on core threads while everything else fires on the manager
 * (or in a fork-checkpoint child), so firing state is mutex-guarded
 * behind cheap atomic pre-filters.
 */
class FaultPlan
{
  public:
    FaultPlan(std::vector<FaultSpec> specs, std::uint64_t seed);

    FaultPlan(const FaultPlan &) = delete;
    FaultPlan &operator=(const FaultPlan &) = delete;

    /**
     * Parse one spec string. Fatal on bad grammar — a mistyped chaos
     * flag must fail loudly, not silently run fault-free.
     */
    static FaultSpec parseSpec(const std::string &text);

    /** Split a comma/semicolon-separated flag value into specs. */
    static std::vector<FaultSpec>
    parseSpecList(const std::string &text);

    /** @return the plan bound to the calling thread, or nullptr (the
     *  common case). */
    static FaultPlan *
    active()
    {
        return activePlan_;
    }

    /** Bind this plan to the calling thread (fatal on nesting). */
    void install();

    /** Unbind this plan from the calling thread (idempotent). */
    void uninstall();

    // ---- injection hooks (each spec fires at most once) ----

    /**
     * Checkpoint was just sealed as ordinal @p ckpt_ordinal (1-based).
     * Applies any snapshot-corrupt / snapshot-truncate spec due now
     * to @p arena in place. @return true when the arena was damaged.
     */
    bool fireSnapshotFault(std::uint64_t ckpt_ordinal,
                           std::vector<std::uint8_t> &arena, Tick now);

    /** @return true when a spurious rollback is due after checkpoint
     *  @p ckpt_ordinal. */
    bool fireSpuriousRollback(std::uint64_t ckpt_ordinal, Tick now);

    /** What a fork-checkpoint child should do to itself. */
    enum class ChildFault : std::uint8_t { None, Kill, Exit };

    /**
     * Queried in the parent *before* fork so the record (and the
     * fired flag) live in memory that survives the recovery rollback.
     */
    ChildFault fireChildFault(std::uint64_t ckpt_ordinal, Tick now);

    /** @return host-ms core @p core should stall now (0: none). */
    std::uint64_t fireWorkerStall(CoreId core, Tick local);

    /** @return manager service rounds to skip starting at @p global
     *  (0: none). */
    std::uint64_t fireBackpressure(Tick global);

    /** @return true when the next checked open of @p what should
     *  fail transiently. */
    bool fireIoFail(const char *what);

    /**
     * Serve-site faults at the manager loop, once global time reaches
     * the trigger. job-crash raises SIGSEGV on the calling thread and
     * does not return; job-hang sleeps arg0 host-ms (a wedge long
     * enough for the supervisor's timeout/kill escalation to be what
     * ends it). Only meaningful inside a process-isolated job — the
     * server refuses these kinds for inline jobs at submit time.
     */
    void fireServeFault(Tick global);

    /**
     * Daemon self-destruction for crash-recovery drills: @return true
     * when @p start_ordinal (1-based count of jobs started) hits a
     * daemon-kill-window trigger and the caller should SIGKILL its
     * own process — a deterministic stand-in for `kill -9` mid-batch.
     * Fired on a server-held plan, never a thread-installed one.
     */
    bool fireDaemonKill(std::uint64_t start_ordinal);

    /**
     * Attribute the most recent still-unhandled injection to the
     * layer that just contained it. When @p replacing is non-null and
     * a record already attributed to @p replacing exists, that record
     * is re-attributed instead — the restore loop marks a bad
     * generation "restore-fallback" before it can know whether a
     * later generation saves the run or the whole rollback demotes.
     */
    void markLastHandled(const std::string &handled_by,
                         const char *replacing = nullptr);

    /** @return a copy of everything injected so far. */
    std::vector<InjectionRecord> records() const;

    /** @return number of configured specs. */
    std::size_t specCount() const { return specs_.size(); }

    std::uint64_t seed() const { return seed_; }

  private:
    struct Slot
    {
        FaultSpec spec;
        bool fired = false;
    };

    void record(const Slot &slot, Tick cycle, std::string detail);

    friend class ScopedFaultPlan;
    static inline thread_local FaultPlan *activePlan_ = nullptr;

    std::vector<FaultSpec> specs_;
    std::uint64_t seed_;
    Rng rng_;

    mutable std::mutex mu_;
    std::vector<Slot> slots_;
    std::vector<InjectionRecord> records_;
    std::uint64_t ioOpens_ = 0; //!< checked opens seen so far

    // Lock-free pre-filters: hooks on hot paths bail before the mutex
    // when no matching spec can still fire.
    std::atomic<std::uint32_t> pendingStalls_{0};
    std::atomic<std::uint32_t> pendingBackpressure_{0};
    std::atomic<std::uint32_t> pendingIoFails_{0};
    std::atomic<std::uint32_t> pendingServeFaults_{0};
};

/**
 * Bind a (possibly null) plan to the calling thread for a scope,
 * saving and restoring the previous binding. This is how the engines
 * propagate the run's plan onto the worker threads they borrow from a
 * pool — the pool thread may carry a stale binding from a previous
 * task's crash-unwind, and restoring on exit keeps borrowed threads
 * clean for the next job.
 */
class ScopedFaultPlan
{
  public:
    explicit ScopedFaultPlan(FaultPlan *plan)
        : prev_(FaultPlan::activePlan_)
    {
        FaultPlan::activePlan_ = plan;
    }

    ~ScopedFaultPlan() { FaultPlan::activePlan_ = prev_; }

    ScopedFaultPlan(const ScopedFaultPlan &) = delete;
    ScopedFaultPlan &operator=(const ScopedFaultPlan &) = delete;

  private:
    FaultPlan *prev_;
};

/**
 * Build a plan from config specs with an environment fallback
 * (SLACKSIM_FAULT_SPEC / SLACKSIM_FAULT_SEED): the chaos CI matrix
 * injects faults into unmodified binaries through the environment.
 * @return nullptr when no faults are configured anywhere.
 */
std::vector<FaultSpec>
resolveFaultSpecs(const std::vector<std::string> &config_specs,
                  std::uint64_t config_seed, std::uint64_t *seed_out);

} // namespace fault
} // namespace slacksim

#endif // SLACKSIM_FAULT_FAULT_PLAN_HH
