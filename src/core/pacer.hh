/**
 * @file
 * Pacing policy: computes how far each core may run ahead of the
 * global time under the active scheme, and hosts the adaptive-slack
 * feedback controller (the paper's "slack throttling").
 */

#ifndef SLACKSIM_CORE_PACER_HH
#define SLACKSIM_CORE_PACER_HH

#include <vector>

#include "core/config.hh"
#include "stats/stats.hh"
#include "util/rng.hh"
#include "util/snapshot.hh"
#include "util/types.hh"

namespace slacksim {

namespace obs {
class AdaptiveDecisionLog;
} // namespace obs

/**
 * Scheme pacing + adaptive controller. maxLocalFor() returns the
 * highest cycle index a core may *execute* given the current global
 * time; a core with localTime L may run while L <= maxLocal.
 */
class Pacer : public Snapshotable
{
  public:
    /**
     * @param engine engine configuration (scheme + knobs)
     * @param num_cores core count (needed by per-core schemes)
     * @param host host-statistics sink
     */
    Pacer(const EngineConfig &engine, std::uint32_t num_cores,
          HostStats *host);

    /** @return the scheme's core pacing limit at @p global_time. */
    Tick maxLocalFor(Tick global_time) const;

    /**
     * Per-core pacing limit. Global schemes ignore @p core and
     * @p locals; Lax-P2P paces core i against its current random
     * peer's local clock (@p locals) instead of the global minimum,
     * re-pairing every p2pShufflePeriod cycles. A peer clock below
     * @p global_time (a finished peer's) counts as @p global_time.
     */
    Tick maxLocalForCore(CoreId core, Tick global_time,
                         const std::vector<Tick> &locals);

    /** @return true when the manager must service events in
     *  timestamp-sorted order (cycle-by-cycle accuracy). */
    bool
    sortedService() const
    {
        return replayMode_ || engine_.scheme == SchemeKind::CycleByCycle;
    }

    /**
     * Adaptive feedback: called as global time advances with the
     * cumulative violation counts; adjusts the slack bound once per
     * epoch. No-op for non-adaptive schemes.
     */
    void observe(Tick global_time, const ViolationStats &violations);

    /** @return the current slack bound (adaptive/bounded schemes). */
    Tick currentBound() const { return forcedBound_ ? forcedBound_ : bound_; }

    /**
     * Degradation override (fault/recovery_policy.hh): clamp every
     * scheme's pacing to @p bound and freeze the adaptive controller.
     * Host-side policy — deliberately *not* part of save()/restore(),
     * so a rollback cannot resurrect a revoked slack bound.
     */
    void setForcedBound(Tick bound) { forcedBound_ = bound; }

    /** Lift the degradation override. */
    void clearForcedBound() { forcedBound_ = 0; }

    /** @return the forced bound, or 0 when none is active. */
    Tick forcedBound() const { return forcedBound_; }

    /** Force cycle-by-cycle pacing (speculative replay). */
    void setReplayMode(bool replay) { replayMode_ = replay; }

    /** @return true while in forced cycle-by-cycle replay. */
    bool replayMode() const { return replayMode_; }

    /**
     * Wire (or unwire, with nullptr) the forensics decision log.
     * Every adaptive epoch evaluation is recorded, and a restore()
     * that rewinds the bound logs a "restored" entry so the
     * old→new chain stays contiguous across rollbacks.
     */
    void setDecisionLog(obs::AdaptiveDecisionLog *log)
    {
        decisionLog_ = log;
    }

    void save(SnapshotWriter &writer) const override;
    void restore(SnapshotReader &reader) override;

  private:
    void shufflePeers(Tick global_time);

    /** Scheme pacing with no replay/degradation override applied. */
    Tick nativeMaxLocalFor(Tick global_time) const;

    EngineConfig engine_;
    std::uint32_t numCores_;
    HostStats *host_;
    obs::AdaptiveDecisionLog *decisionLog_ = nullptr;
    Tick bound_ = 0;      //!< live slack bound (adaptive/bounded/p2p)
    Tick forcedBound_ = 0; //!< degradation clamp (0: none)
    Tick nextEpoch_ = 0;  //!< next adaptive evaluation time
    bool replayMode_ = false;
    std::uint64_t lastCounted_ = 0; //!< windowed rate: last total
    Tick lastGlobal_ = 0;           //!< windowed rate: last epoch end

    // Lax-P2P state.
    std::vector<CoreId> peers_;
    Tick nextShuffleAt_ = 0;
    Rng p2pRng_;
};

} // namespace slacksim

#endif // SLACKSIM_CORE_PACER_HH
