/**
 * @file
 * Global checkpoint / rollback orchestration (paper Section 5).
 *
 * The paper's per-thread fork() checkpoints cannot be applied to a
 * thread-parallel simulator (fork clones only the calling thread), so
 * a global checkpoint here is an in-memory serialization of the whole
 * quiesced world: every core complex (pipeline, L1s, queues, clock),
 * the uncore (map, L2, sync, bus state, violation counters) and the
 * manager's in-flight event buffers. Rollback deserializes it and
 * replays in cycle-by-cycle mode until the next checkpoint boundary
 * to guarantee forward progress.
 */

#ifndef SLACKSIM_CORE_CHECKPOINTER_HH
#define SLACKSIM_CORE_CHECKPOINTER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.hh"
#include "core/fork_checkpoint.hh"
#include "core/manager_logic.hh"
#include "core/pacer.hh"
#include "core/sim_system.hh"

namespace slacksim {

namespace obs {
class AdaptiveDecisionLog;
} // namespace obs

/** Checkpoint/rollback controller; all calls on the manager thread
 *  while the simulation is quiesced. A checkpoint's serialization,
 *  integrity seal and emulated extra copy all run there, so
 *  HostStats::checkpointSeconds is the whole critical-path cost the
 *  paper calls Tcpt, and checkpointing adds no host thread. */
class Checkpointer
{
  public:
    Checkpointer(SimSystem &sys, Pacer &pacer, ManagerLogic &mgr,
                 const EngineConfig &engine, HostStats *host);

    /** @return true when checkpointing is configured on. */
    bool
    enabled() const
    {
        return engine_.checkpoint.mode != CheckpointMode::Off;
    }

    /** @return true when rollback-on-violation is configured. */
    bool
    speculative() const
    {
        return engine_.checkpoint.mode == CheckpointMode::Speculative;
    }

    /** @return the simulated time of the next checkpoint boundary. */
    Tick nextCheckpointAt() const { return nextCheckpointAt_; }

    /** @return the time of the last successful checkpoint. */
    Tick lastCheckpointAt() const { return lastCheckpointAt_; }

    /** What takeCheckpoint() reports back to the engine. */
    enum class Event : std::uint8_t
    {
        Taken,              //!< fresh checkpoint; keep going
        ResumedFromRollback //!< (fork tech) this process just woke up
                            //!< at the checkpoint after a rollback:
                            //!< the engine must enter replay pacing
    };

    /** What rollback() reports back to the engine. */
    struct RollbackResult
    {
        enum class Status : std::uint8_t
        {
            Restored, //!< active generation verified and restored
            FellBack, //!< active failed integrity; older last-good
                      //!< generation restored instead
            Demoted   //!< no generation verified: speculation is now
                      //!< suppressed, execution continues forward
        };

        Status status = Status::Restored;
        Tick resumedAt = 0; //!< simulated time execution resumes at
    };

    /**
     * Take a global checkpoint at quiesced time @p now: closes the
     * open measurement interval, captures the world (in-memory
     * serialization or a fork() process checkpoint, per the
     * configured technology), re-arms rollback and opens the next
     * interval. Ends a replay window.
     */
    Event takeCheckpoint(Tick now);

    /** Sync host statistics that live in fork-shared state (no-op
     *  for the in-memory technology). Call before collecting run
     *  results. */
    void finalizeHostStats();

    /**
     * Restore the newest checkpoint generation whose integrity
     * trailer verifies (system must be quiesced); a generation that
     * fails verification is discarded and the previous last-good one
     * is tried. With no valid generation left the run is demoted —
     * speculation suppressed, execution continues forward — instead
     * of crashing. On a restore, enters cycle-by-cycle replay until
     * the next boundary.
     * @param current_global global time when the violation hit
     */
    RollbackResult rollback(Tick current_global);

    /**
     * Degradation ladder switch (fault/recovery_policy.hh): while
     * suppressed, checkpoints are still taken (preserving interval
     * measurement) but rollback stays disarmed. Set internally when
     * every generation fails integrity verification.
     */
    void setSpeculationSuppressed(bool suppressed)
    {
        speculationSuppressed_ = suppressed;
    }

    /** @return true while speculation is suppressed. */
    bool speculationSuppressed() const
    {
        return speculationSuppressed_;
    }

    /** @return bytes of the most recent checkpoint (incl. trailer). */
    std::uint64_t
    lastCheckpointBytes() const
    {
        return gens_[active_].buf.size();
    }

    /** Wire (or unwire, with nullptr) the forensics episode log:
     *  each checkpoint/rollback/replay episode is recorded with its
     *  host-ns cost. */
    void setDecisionLog(obs::AdaptiveDecisionLog *log)
    {
        decisionLog_ = log;
    }

  private:
    SimSystem &sys_;
    Pacer &pacer_;
    ManagerLogic &mgr_;
    EngineConfig engine_;
    HostStats *host_;

    /** One retained checkpoint generation: a sealed arena (payload +
     *  integrity trailer, util/checksum.hh) and where it was taken. */
    struct Generation
    {
        std::vector<std::uint8_t> buf;
        Tick takenAt = 0;
        bool valid = false; //!< sealed and not yet failed verification
    };

    /**
     * Double-buffered retained snapshot storage: gens_[active_]
     * always holds the last *complete* checkpoint; a new one is
     * serialized into the spare (reusing its capacity) and the roles
     * swap only once the write finished and the arena is sealed. A
     * failure mid-serialization therefore never corrupts the rollback
     * image, and the out-going generation stays restorable as the
     * last-good fallback should the new one fail verification.
     */
    Generation gens_[2];
    std::uint32_t active_ = 0;
    std::vector<std::uint8_t> extraCopyArena_;
    std::vector<std::uint8_t> extraCopyScratch_;
    std::unique_ptr<ForkCheckpointer> fork_;
    Tick lastCheckpointAt_ = 0;
    Tick nextCheckpointAt_ = 0;
    bool haveCheckpoint_ = false;
    bool speculationSuppressed_ = false;
    obs::AdaptiveDecisionLog *decisionLog_ = nullptr;
    std::uint64_t replayStartNs_ = 0; //!< wall ns when replay began
};

} // namespace slacksim

#endif // SLACKSIM_CORE_CHECKPOINTER_HH
