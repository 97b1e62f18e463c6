/**
 * @file
 * The threaded SlackSim engine: worker host threads driving the
 * simulated cores plus the simulation manager on the calling thread
 * (paper Section 2, generalized to host-topology-aware scheduling).
 *
 * Host-thread multiplexing: instead of the paper's fixed one-thread-
 * per-core mapping, the simulated cores are partitioned across
 * EngineConfig::hostThreads - 1 worker threads (auto-sized from the
 * host when 0), parti-gem5-style. Each worker round-robins bursts
 * over its owned cores and only parks when *every* owned core is
 * blocked, which collapses the per-core park/wake storms the profiler
 * attributed most parallel host time to. The degenerate inline mode
 * (hostThreads = 1, or an auto-detected single-CPU host) launches no
 * workers at all: the manager drives every core burst itself, so a
 * host with nothing to gain from concurrency pays zero park/wake
 * cost — the honest configuration in which parallel >= serial.
 *
 * Pacing protocol: each core owns an atomic local clock; the manager
 * publishes a per-core max-local-time. Wakes are coalesced: pacing
 * changes and deliveries mark pending cores in a bitset, and one
 * sweep per manager iteration bumps each affected worker's wake word
 * once. A worker announces itself in a `parked` flag before waiting,
 * so the sweep skips the futex syscall entirely for running workers
 * (the Dekker-style store-buffering argument in wakeWorker() makes
 * the skip lost-wake-free). Workers spin/yield a few idle rounds
 * before parking — on oversubscribed hosts the yield usually hands
 * the CPU to the manager, whose next service round unblocks them
 * without any futex round trip. Progress notifications flow the other
 * way through a sharded progress board the manager can sleep on.
 * Checkpoints are taken when all unfinished cores quiesce at the
 * boundary (pacing clamps them there); rollbacks use a stop-the-world
 * pause handshake acknowledged once per worker.
 */

#ifndef SLACKSIM_CORE_PARALLEL_ENGINE_HH
#define SLACKSIM_CORE_PARALLEL_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/checkpointer.hh"
#include "core/config.hh"
#include "core/manager_logic.hh"
#include "core/pacer.hh"
#include "core/run_result.hh"
#include "core/sim_system.hh"
#include "fault/recovery_policy.hh"
#include "util/core_bitset.hh"
#include "util/progress_board.hh"
#include "util/task_runner.hh"

namespace slacksim {

namespace obs {
class StallWatchdog;
} // namespace obs

/** The multi-threaded engine. */
class ParallelEngine
{
  public:
    explicit ParallelEngine(SimSystem &sys);

    /** Run to completion (or to the configured uop budget). */
    RunResult run();

    /** @return worker threads the run will use (0 = inline mode:
     *  the manager drives every core burst itself). */
    std::uint32_t workerCount() const { return workerCount_; }

  private:
    /** Per-core shared control block (worker <-> manager). */
    struct CoreControl
    {
        alignas(64) std::atomic<Tick> maxLocal{0};
        alignas(64) std::atomic<bool> finished{false};
        std::atomic<std::uint64_t> committed{0};
        /** The core's local clock when `committed` was published. */
        std::atomic<Tick> committedAt{0};
    };

    /** Per-worker park/wake block. One wake word per *worker*: a
     *  worker parks only when all its owned cores are blocked, and
     *  the manager's coalesced sweep bumps it at most once per
     *  iteration regardless of how many owned cores changed. */
    struct WorkerControl
    {
        alignas(64) std::atomic<std::uint32_t> wakeWord{0};
        alignas(64) std::atomic<bool> parked{false};
        CoreId first = 0;
        CoreId last = 0; //!< exclusive
        std::uint64_t parks = 0; //!< futex parks (worker-local)
    };

    enum Phase : std::uint32_t { phaseRunning = 0, phasePaused = 1 };

    /** What one core's burst attempt amounted to (worker + inline). */
    enum class CoreRun : std::uint8_t
    {
        Progress,     //!< advanced >= 1 cycle (or just finished)
        Paced,        //!< at the pacing limit
        Inbound,      //!< inert, awaiting an InQ delivery
        Backpressure, //!< OutQ full, needs a manager drain
        Finished      //!< trace complete
    };

    /** One consistent pass over every core clock (see sampleClocks). */
    struct ClockSample
    {
        Tick global = 0;          //!< min unfinished (max when done)
        Tick minUnfinished = maxTick;
        Tick maxUnfinished = 0;
    };

    /**
     * Where worker-driven cores stand for a uop-threshold check (see
     * sampleCut). The serial engine checks its warmup and stop
     * thresholds after each round, when every core has run the same
     * cycle; under sorted service the threaded topologies must check
     * on exactly those cuts to stop on the same cycle.
     */
    enum class Cut : std::uint8_t
    {
        Free,    //!< no exact check needed: pace and check as before
        Moving,  //!< cores between cuts: pace, check no threshold
        Pending, //!< at a cut not yet published or serviced: hold it
        Stable   //!< at a published, serviced cut: check, then pace
    };

    void workerThreadMain(std::uint32_t w);
    /** Run one burst for core @p c (worker threads and inline mode
     *  share this path). Updates the core's control block, progress
     *  board and trace spans. */
    CoreRun runCoreBurst(CoreId c);
    /** Drive every core one scan in inline mode. @return true when
     *  any core advanced. */
    bool driveInline();
    /** Mark core @p c's worker for the next coalesced wake sweep. */
    void requestWake(CoreId c);
    /** Bump + (if parked) futex-wake every marked worker, at most
     *  once each, then clear the marks. */
    void flushWakes();
    /** Unconditionally bump + wake one worker (pause/shutdown). */
    void wakeWorkerNow(std::uint32_t w);
    /**
     * Scan every core clock exactly once: fills localsScratch_ and
     * returns the global time plus the unfinished min/max (slack
     * spread), so one scan serves the safe time, the pacing targets
     * and the slack-spread stat.
     */
    ClockSample sampleClocks();
    /** Publish new pacing limits from an existing clock sample and
     *  flush the coalesced wake sweep. */
    void updatePacing(bool monotone, const ClockSample &sample);
    /** Publish new pacing limits from a fresh scan; @p monotone false
     *  only while the cores are paused (rollback). */
    void updatePacing(bool monotone);
    /**
     * Sorted service in inline mode: the conservative-lookahead
     * horizon H = EOT + L. EOT, the earliest output time, is the
     * least of the earliest staged request and every unfinished
     * core's wake hint; L is the uncore lookahead, 1 within one
     * round's worth of commits of a uop threshold. No message a core
     * has not yet received can be stamped below H, so every core may
     * execute every cycle below it. Never below @p global + 1.
     */
    Tick sortedHorizon(Tick global) const;
    /**
     * Classify @p clocks for an exact uop-threshold check. A cut is
     * stable when every unfinished core sits at one clock T, paced
     * below it (frozen until the manager raises its limit), with its
     * committed count published at T, and every event below T is
     * serviced. Free unless sorted service runs on worker threads
     * with a warmup or stop threshold pending.
     */
    Cut sampleCut(const ClockSample &clocks) const;
    bool quiescedAtBoundary(Tick boundary) const;
    void pauseWorld();
    void resumeWorld();
    void refreshControlAfterRestore();
    RunResult collectResult(double wall_seconds) const;
    /** Inline mode (no workers): the manager is the only thread in
     *  the run, so cross-thread signalling (board bumps, seq_cst
     *  pacing stores, wake bookkeeping) is pure overhead and skipped
     *  on the hot path. */
    bool inlineMode() const { return workerCount_ == 0; }

    SimSystem &sys_;
    EngineConfig engine_;
    HostStats host_;
    Pacer pacer_;
    ManagerLogic mgr_;
    Checkpointer ckpt_;
    fault::RecoveryPolicy recovery_{engine_, pacer_, mgr_, ckpt_};
    std::uint64_t backpressureRounds_ = 0; //!< injected service skips

    std::vector<std::unique_ptr<CoreControl>> controls_;
    std::vector<std::unique_ptr<WorkerControl>> workers_;
    std::uint32_t workerCount_ = 0; //!< 0 = inline mode
    /** Core -> owning worker (meaningless in inline mode). */
    std::vector<std::uint32_t> workerOf_;
    /** Coalesced wake sweep: cores marked since the last flush. */
    CoreBitset wakePending_;
    /** Scratch: workers already bumped in the current flush. */
    std::vector<std::uint8_t> workerWoken_;
    /** Last burst outcome per core (worker park recheck). */
    std::vector<std::uint8_t> lastRun_;
    /** Inline-mode scan start, rotated like the serial engine's so no
     *  core is systematically serviced first. */
    CoreId inlineRotate_ = 0;
    /** Inline mode under sorted service (CC or speculative
     *  replay): pace by sortedHorizon() and account skipped stall
     *  cycles exactly. Threaded topologies keep one-cycle pacing: the
     *  manager cannot read the core state their workers own. */
    bool horizonPacing_ = false;
    /** max(1, Uncore::lookahead()). */
    Tick lookahead_ = 1;
    /** Safe time of the last service round: every staged event below
     *  it has been serviced. Caps sorted-service pacing. */
    Tick servicedBelow_ = 0;
    /** true until warmupUops have committed and stats were reset. */
    bool warmupPending_ = false;
    std::vector<Tick> localsScratch_;
    /** Worker handles from the configured TaskRunner: pool threads
     *  under the job server, plain spawned threads otherwise. */
    std::vector<std::unique_ptr<TaskRunner::Handle>> threads_;
    /** Used when EngineConfig::runner is null (single-run tools). */
    ThreadSpawnRunner fallbackRunner_;

    std::atomic<std::uint32_t> phase_{phaseRunning};
    std::atomic<std::uint32_t> pauseGen_{0};
    std::atomic<std::uint32_t> resumeEpoch_{0};
    std::atomic<std::uint32_t> ackCount_{0};
    /** Sharded progress: one slot per core. */
    ProgressBoard board_;
    std::atomic<bool> stop_{false};

    /** Stall watchdog for this run, or nullptr (--watchdog-ms=0).
     *  Owned by the ObsSession; set for the duration of run().
     *  Worker index c is core c. */
    obs::StallWatchdog *watchdog_ = nullptr;
};

} // namespace slacksim

#endif // SLACKSIM_CORE_PARALLEL_ENGINE_HH
