/**
 * @file
 * Per-run observability session: the glue both engines drive from
 * the manager thread. Owns the run's clock anchor and the recorder
 * session (armed before worker threads spawn, drained at checkpoint
 * boundaries, exported after the run) and the epoch metrics sampler
 * (snapshot the run state every sampling epoch, plus forced samples
 * at checkpoint/rollback edges so speculative transitions are never
 * missed between epochs).
 *
 * Since the forensics layer landed, the session also owns the
 * ViolationLedger / AdaptiveDecisionLog (wired into the uncore, the
 * pacer and the checkpointer for the duration of the run) and the
 * optional stall watchdog; finish() folds all of it — plus the obs
 * layer's own overhead accounting — into a ForensicsData block that
 * collectResult() copies into the RunResult for the run report.
 */

#ifndef SLACKSIM_OBS_OBS_SESSION_HH
#define SLACKSIM_OBS_OBS_SESSION_HH

#include <memory>

#include "obs/flight_recorder.hh"
#include "obs/forensics.hh"
#include "obs/hw_counters.hh"
#include "obs/metrics.hh"
#include "obs/obs_config.hh"

namespace slacksim {

class SimSystem;
class Pacer;
class ManagerLogic;
class Checkpointer;
struct HostStats;

namespace obs {

/** One run's observability state; all calls on the manager thread. */
class ObsSession
{
  public:
    /** References must outlive the session (engine members). */
    ObsSession(const ObsConfig &config, SimSystem &sys, Pacer &pacer,
               ManagerLogic &mgr, Checkpointer &ckpt,
               const HostStats &host);
    ~ObsSession();

    ObsSession(const ObsSession &) = delete;
    ObsSession &operator=(const ObsSession &) = delete;

    /**
     * Start the session: captures the clock anchor (t0 of every
     * output), wires the forensics ledgers into the
     * uncore/pacer/checkpointer, creates the stall watchdog (when
     * --watchdog-ms is set; the engine still registers workers and
     * starts it), and — when trace, profile or watchdog is requested
     * — arms the recorder, registers the calling thread under @p role
     * and opens the engine-run span at the anchor. Call before
     * spawning core threads AND before the initial checkpoint, so the
     * ledger is part of every snapshot.
     */
    void begin(const char *role);

    /** @return true while the recorder traces this run. */
    bool tracing() const { return tracing_; }

    /** @return true when the metrics sampler is on. */
    bool metricsOn() const { return sampler_ != nullptr; }

    /** @return true while the recorder's profile of this run will be
     *  reported (--profile). */
    bool profiling() const { return profiling_; }

    /** @return the stall watchdog, or nullptr when not configured.
     *  The engine registers its workers and calls start()/notes. */
    StallWatchdog *watchdog() { return watchdog_.get(); }

    /** Sample the run state if the sampling epoch has elapsed. */
    void maybeSample(Tick global);

    /** Sample unconditionally (checkpoint / rollback edges). */
    void forceSample(Tick global);

    /** Drain the per-thread trace rings into the recorder's
     *  accumulators (checkpoint boundaries; frees ring space mid-run). */
    void collectTrace();

    /**
     * Finish the run: final sample, close the engine-run span, write
     * the Chrome-trace JSON and metrics CSV files, stop the watchdog,
     * unwire the forensics ledgers and fold them (with the obs
     * self-overhead counters) into the ForensicsData block.
     * Idempotent.
     */
    void finish(Tick global);

    /** Move the collected forensics out (valid after finish()). */
    ForensicsData takeForensics() { return std::move(forensics_); }

    /** The run's decision log (valid between begin() and finish());
     *  the recovery policy records degradation transitions here. */
    AdaptiveDecisionLog *decisionLog() { return &decisions_; }

  private:
    void sample(Tick global);
    void publishProgress(const MetricsRow &row);
    std::uint64_t wallNowNs() const;
    void unwire();
    void warnOnFirstDrop();

    ObsConfig config_;
    SimSystem &sys_;
    Pacer &pacer_;
    ManagerLogic &mgr_;
    Checkpointer &ckpt_;
    const HostStats &host_;

    bool recording_ = false; //!< this run owns the recorder session
    bool tracing_ = false;
    bool profiling_ = false;
    bool finished_ = false;
    bool wired_ = false;
    bool dropWarned_ = false;
    std::unique_ptr<MetricsSampler> sampler_;
    std::unique_ptr<HwCounters> hw_;
    ClockAnchor anchor_; //!< t0 of trace, profile and metrics

    ViolationLedger ledger_;
    AdaptiveDecisionLog decisions_;
    TraceSpanInfo traceInfo_; //!< span identity + clock anchor
    std::unique_ptr<StallWatchdog> watchdog_;
    ForensicsData forensics_;
    std::uint64_t samplerHostNs_ = 0;

    /** Last-published window anchors for the progress rates. */
    std::uint64_t lastPubWallNs_ = 0;
    Tick lastPubGlobal_ = 0;
    std::uint64_t lastPubBusRequests_ = 0;
};

} // namespace obs
} // namespace slacksim

#endif // SLACKSIM_OBS_OBS_SESSION_HH
