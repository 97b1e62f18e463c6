/**
 * @file
 * Top-level simulation configuration: target machine, slack scheme,
 * checkpointing, and run control. Defaults mirror the paper's
 * experimental setup (Section 2.1): 8-core CMP, 4-way OoO cores with
 * 64 in-flight instructions, 16KB L1 I/D, 256KB shared L2 with
 * 8-clock access, 100-clock L2 miss, MESI over a request/response
 * snooping bus.
 */

#ifndef SLACKSIM_CORE_CONFIG_HH
#define SLACKSIM_CORE_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/l1_cache.hh"
#include "cpu/ooo_core.hh"
#include "obs/obs_config.hh"
#include "uncore/uncore.hh"
#include "util/types.hh"
#include "workload/kernels.hh"

namespace slacksim {

class CancelToken; // util/cancel.hh
class TaskRunner;  // util/task_runner.hh

/** The pacing scheme applied by the simulation manager. */
enum class SchemeKind : std::uint8_t {
    CycleByCycle, //!< lock-step, sorted event service (gold standard)
    Quantum,      //!< barrier every `quantum` cycles, arrival-order
                  //!< service
    Bounded,      //!< slack bound `slackBound`, arrival-order service
    Unbounded,    //!< free-running, arrival-order service
    Adaptive,     //!< bounded + violation-rate feedback control
    LaxP2P,       //!< Graphite-style peer-to-peer slack: each core is
                  //!< paced against one randomly chosen peer instead
                  //!< of the global minimum (the approach the paper
                  //!< cites from Graphite and plans to explore)
};

/** @return printable scheme name. */
const char *schemeName(SchemeKind kind);

/** Parse a scheme name ("cc", "quantum", ...). Fatal on failure. */
SchemeKind parseScheme(const std::string &name);

/** Checkpoint machinery mode. */
enum class CheckpointMode : std::uint8_t {
    Off,         //!< no checkpoints
    Measure,     //!< take checkpoints, record per-interval violation
                 //!< data (Tables 2-4), never roll back
    Speculative, //!< full speculation: roll back on violations and
                 //!< replay cycle-by-cycle to the next checkpoint
};

/** Adaptive-scheme controller parameters. */
struct AdaptiveParams
{
    double targetViolationRate = 1e-4; //!< paper baseline: 0.01%
    double violationBand = 0.05;       //!< +-5% dead zone around target
    Tick epochCycles = 1000;           //!< control-loop period
    /** false (paper): rate = total violations / total cycles.
     *  true: rate over the last epoch only (faster reaction, no
     *  startup-transient bias). */
    bool windowedRate = false;
    Tick initialBound = 8;
    Tick minBound = 1;
    Tick maxBound = 4096;
    bool adaptOnBus = true;            //!< count bus violations
    bool adaptOnMap = true;            //!< count map violations
};

/** How global checkpoints are materialized. */
enum class CheckpointTech : std::uint8_t {
    Memory,      //!< in-memory serialization of the quiesced world
    ForkProcess, //!< the paper's fork()-based process checkpoints;
                 //!< serial engine only (fork clones one thread), and
                 //!< rollback resumes in the *parent* process — see
                 //!< core/fork_checkpoint.hh
};

/** Checkpoint / speculation parameters. */
struct CheckpointParams
{
    CheckpointMode mode = CheckpointMode::Off;
    CheckpointTech tech = CheckpointTech::Memory;
    Tick interval = 50000;     //!< cycles between global checkpoints
    bool rollbackOnBus = true; //!< bus violations trigger rollback
    bool rollbackOnMap = true; //!< map violations trigger rollback
    /**
     * Emulated per-checkpoint host cost in bytes copied, on top of
     * the real snapshot, to model heavier checkpoint technology (the
     * paper's fork() checkpoints pay COW page-fault costs we do not).
     * 0 disables the emulation.
     */
    std::uint64_t extraCopyBytes = 0;

    /**
     * Fork technology only: kill and recover a checkpoint child that
     * produces no exit status within this many host ms (0 = wait
     * forever, the pre-fault-tolerance behavior).
     */
    std::uint64_t childTimeoutMs = 0;
};

/**
 * Graceful-degradation ladder (DESIGN.md §9). All detection knobs
 * default to off so existing configurations behave exactly as before;
 * checkpoint-integrity demotion is always on (a run with no valid
 * rollback image must degrade rather than crash).
 */
struct RecoveryParams
{
    /**
     * Rollbacks within stormWindow cycles that count as a rollback
     * storm; a storm demotes speculative → adaptive (stop rolling
     * back, keep adapting). 0 disables storm detection.
     */
    std::uint32_t stormThreshold = 0;

    /** Sliding window (cycles) for storm detection. */
    Tick stormWindow = 100000;

    /**
     * Consecutive adaptive epochs pinned at minBound with the
     * violation rate still above band before demoting to fixed
     * slack=1 (quantum-equivalent, paper §3). 0 disables.
     */
    std::uint32_t pinnedEpochLimit = 0;

    /**
     * Cycles of demoted running before one re-promotion attempt; the
     * delay doubles after every demotion (capped at 8x). 0 = demote
     * permanently, never re-promote.
     */
    Tick repromoteAfter = 0;
};

/** Engine (simulation-layer) configuration. */
struct EngineConfig
{
    SchemeKind scheme = SchemeKind::CycleByCycle;
    Tick slackBound = 10;  //!< Bounded/LaxP2P: max drift vs min/peer
    Tick quantum = 8;      //!< Quantum: barrier period
    Tick p2pShufflePeriod = 1000; //!< LaxP2P: cycles between random
                                  //!< re-pairings
    std::uint64_t p2pSeed = 12345; //!< LaxP2P: pairing RNG seed
    AdaptiveParams adaptive;
    CheckpointParams checkpoint;
    RecoveryParams recovery;

    /**
     * Deterministic fault injection: parsed --fault-spec strings
     * (grammar in fault/fault_plan.hh) plus the seed that fixes every
     * random choice a fault makes (bit positions, truncation points).
     * Empty = no faults; runSimulation() also honors the
     * SLACKSIM_FAULT_SPEC environment as a fallback.
     */
    std::vector<std::string> faultSpecs;
    std::uint64_t faultSeed = 1;

    /** Stop after this many committed micro-ops in total (0: run to
     *  trace completion). */
    std::uint64_t maxCommittedUops = 0;

    /** Discard all simulated statistics once this many micro-ops have
     *  committed (0: off). Mirrors the paper's methodology of
     *  skipping benchmark initialization before measuring; the uop
     *  budget then counts post-warmup work only. */
    std::uint64_t warmupUops = 0;

    /** true: threaded engine (one thread per core + manager thread);
     *  false: deterministic single-threaded engine. */
    bool parallelHost = true;

    /** Cycles a core may run per scheduling burst (parallel host). */
    std::uint32_t burstCycles = 64;

    /**
     * Host threads the parallel engine may occupy, *including* the
     * manager thread. The simulated cores are split into equal spans
     * for at most N-1 worker threads, one worker per span
     * (parti-gem5-style partitioned event servicing), so fewer may
     * launch: 8 cores at N = 8 make spans of 2 and launch 4 workers.
     * engineWorkers() below is the one place that counts them. 1 =
     * inline mode: no workers at all, the manager drives every core
     * burst itself (the honest configuration for a single-CPU host,
     * where extra threads only buy context switches). 0 = auto-size
     * from std::thread::hardware_concurrency().
     */
    std::uint32_t hostThreads = 0;

    /**
     * Messages each OutQ/InQ holds, rounded up to a power of two: a
     * ring of N slots holds exactly N (4096 holds 4096, 100 holds
     * 128). Slot memory becomes resident only where a message is
     * first written, so a large capacity costs only what the queue
     * carries.
     */
    std::uint32_t queueCapacity = 4096;

    /** Abort if no global progress for this long (hang detection). */
    double watchdogSeconds = 120.0;

    /** Observability: event tracing + epoch metrics (off by default;
     *  see src/obs and the --trace-out/--metrics-out flags). */
    ObsConfig obs;

    /**
     * Cooperative cancellation channel (util/cancel.hh), or nullptr.
     * The engines poll it at their loop boundary and return a partial
     * result with `cancelled = true`; the job server uses this for
     * per-job timeouts, client cancels and shutdown drains. Non-owning
     * — must outlive the run.
     */
    CancelToken *cancel = nullptr;

    /**
     * Where engine worker threads execute (util/task_runner.hh), or
     * nullptr for the built-in spawn/join-per-run behavior. The serve
     * worker pool passes its persistent pool here so thousands of
     * jobs reuse one set of host threads. Non-owning.
     */
    TaskRunner *runner = nullptr;
};

/** Target-machine configuration. */
struct TargetConfig
{
    std::uint32_t numCores = 8;
    CoherenceProtocol protocol = CoherenceProtocol::MESI;
    CoreParams core;
    L1Params l1d{64, 4, 64, 8, 1, false}; //!< 16KB D-cache
    L1Params l1i{64, 4, 64, 2, 1, true};  //!< 16KB I-cache
    L2Params l2;
    Tick c2cLatency = 12;
    Tick syncLatency = 6;
    Tick busRequestCycles = 1;
    Tick busResponseCycles = 2;
};

/** Everything a run needs. */
struct SimConfig
{
    TargetConfig target;
    EngineConfig engine;
    WorkloadParams workload;

    /** Validate cross-field consistency; fatal on user error. */
    void validate() const;
};

/**
 * The worker threads the parallel engine launches for @p config on a
 * host with @p hardware CPUs (std::thread::hardware_concurrency(), 0
 * when unknown); a run occupies these plus the manager's thread.
 *
 * 0 for the serial engine and for cycle-by-cycle runs, whose sorted
 * service is the manager's. Otherwise EngineConfig::hostThreads
 * (max(1, @p hardware) when 0) counts the manager, so
 * min(cores, hostThreads - 1) workers are asked for. The cores split
 * into spans of ceil(cores / asked), and one worker runs each
 * non-empty span: 8 cores at hostThreads 8 launch 4 workers.
 *
 * ParallelEngine partitions its cores with this, and serve admission
 * (serve::JobSpec::hostThreads) reserves 1 plus it, so a job reserves
 * exactly the threads its run uses.
 */
std::uint32_t engineWorkers(const SimConfig &config, unsigned hardware);

} // namespace slacksim

#endif // SLACKSIM_CORE_CONFIG_HH
