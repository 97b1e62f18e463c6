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
 * Sorted service (cycle-by-cycle runs and speculative replay) belongs
 * to the manager. A horizon round holds a few cycles of work, far
 * less than a hand-off to a worker costs, so a cycle-by-cycle run
 * launches no workers, and a threaded speculative run keeps its
 * workers paused from a rollback to the checkpoint boundary where the
 * replay ends, driving every core inline meanwhile.
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
        Tick maxAny = 0;          //!< max over every core
        /** Sorted service only: the least wakeHint() of the cores
         *  not finished (maxTick otherwise). */
        Tick earliestWake = maxTick;
        /** Committed uops, all cores; summed only while a uop
         *  threshold is pending (countingUops()). */
        std::uint64_t committed = 0;

        /** @return true when every unfinished core stands at
         *  @p boundary and at least one is unfinished. */
        bool
        quiescedAt(Tick boundary) const
        {
            return minUnfinished == boundary && maxUnfinished == boundary;
        }

        /** @return true when every core has finished. */
        bool allFinished() const { return minUnfinished == maxTick; }
    };

    void workerThreadMain(std::uint32_t w);
    /** Run one burst for core @p c, on its worker thread or, with
     *  @p by_manager, on the manager's (inline mode). Updates the
     *  core's control block, progress board and trace spans. The
     *  manager passes the core's wakeHint() as @p wake: one beyond
     *  the core's limit makes the burst one O(1) re-entry. */
    CoreRun runCoreBurst(CoreId c, bool by_manager, Tick wake = 0);
    /**
     * Drive every core one scan in inline mode, recording each
     * core's clock into @p sample as its burst ends: nothing else
     * moves a core's clock, finished flag or commit count within the
     * round. @return true when any core advanced.
     */
    bool driveInline(ClockSample &sample);
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
    /** Fold core @p c's clock @p t into @p s and localsScratch_;
     *  @p finished is its control block's flag. */
    void noteClock(ClockSample &s, CoreId c, Tick t, bool finished);
    /** Set @p s's global time once every core is noted. */
    static void sealSample(ClockSample &s);
    /** Unless core @p c finished, fold its wakeHint() into @p s's
     *  earliestWake. */
    void noteWakeHint(ClockSample &s, CoreId c);
    /** @return true while a warmup or stop threshold needs the
     *  committed-uop sum. */
    bool
    countingUops() const
    {
        return warmupPending_ || engine_.maxCommittedUops != 0;
    }
    /** Publish new pacing limits from @p sample and flush the
     *  coalesced wake sweep. Sorted service is paced to
     *  sortedHorizon(); slack limits are only ever raised. */
    void updatePacing(const ClockSample &sample);
    /**
     * Sorted service pacing: the conservative-lookahead horizon
     * H = EOT + L. EOT, the earliest output time, is the
     * least of the earliest staged request and every unfinished
     * core's wake hint (@p s's earliestWake); L is the uncore
     * lookahead, 1 within one round's worth of commits of a uop
     * threshold. No message a core has not yet received can be
     * stamped below H, so every core may execute every cycle below
     * it. Never below the sample's global + 1.
     */
    Tick sortedHorizon(const ClockSample &s) const;
    /** Stop every worker and wait for its ack. A no-op while the
     *  manager drives the cores: the workers are not running. */
    void pauseWorld();
    /** Release the workers a pauseWorld() stopped. A no-op while the
     *  manager drives the cores. */
    void resumeWorld();
    void refreshControlAfterRestore();
    RunResult collectResult(double wall_seconds) const;
    /** Inline mode, read by the manager only: the manager drives
     *  every core itself, because there are no workers or because
     *  sorted service runs, which keeps them paused from a rollback
     *  to the end of its replay. The manager is then the only thread
     *  touching engine state, so cross-thread signalling (board
     *  bumps, seq_cst pacing stores, wake bookkeeping) is pure
     *  overhead and skipped on the hot path. */
    bool inlineMode() const
    {
        return workerCount_ == 0 || pacer_.sortedService();
    }

    SimSystem &sys_;
    EngineConfig engine_;
    HostStats host_;
    Pacer pacer_;
    ManagerLogic mgr_;
    Checkpointer ckpt_;
    fault::RecoveryPolicy recovery_{engine_, pacer_, mgr_, ckpt_};
    std::uint64_t backpressureRounds_ = 0; //!< injected service skips

    /** One per core, contiguous (sized once: atomics do not move). */
    std::vector<CoreControl> controls_;
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
    /** max(1, Uncore::lookahead()). */
    Tick lookahead_ = 1;
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
