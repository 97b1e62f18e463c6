/**
 * @file
 * Violation forensics: who caused each slack violation, against whom,
 * at what slack — plus a ledger of every decision the adaptive
 * controller and the checkpointer made while the run unfolded.
 *
 * The PR 1 obs layer answers "what happened when" (event streams,
 * epoch gauges). This layer answers the paper's *why* questions:
 * which address buckets and core pairs drive bus/map violations, what
 * the slack distribution at detection looked like, and how the
 * adaptive controller reacted epoch by epoch. Everything here is
 * manager-thread-only state fed from Uncore::service and
 * Pacer::observe — no atomics, no locks, no hot-path cost beyond a
 * pointer test and (on the rare violation) a few table updates.
 *
 * The ViolationLedger participates in checkpoints: a speculative
 * rollback rewinds ViolationStats, so the ledger must rewind in
 * lockstep or its totals drift away from the counters they attribute
 * (the run report asserts exact agreement).
 */

#ifndef SLACKSIM_OBS_FORENSICS_HH
#define SLACKSIM_OBS_FORENSICS_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/recorder.hh"
#include "obs/span.hh"
#include "util/histogram.hh"
#include "util/snapshot.hh"
#include "util/types.hh"

namespace slacksim {
namespace obs {

/** Which monitor detected the violation. */
enum class ViolationKind { Bus, Map };

/**
 * Per-run attribution of every counted bus/map violation to
 * (address bucket, requester core, prior-owner core, slack at
 * detection). Owned by ObsSession, wired into Uncore for the duration
 * of a run.
 */
class ViolationLedger
{
  public:
    /** Address bucket granularity: line >> bucketShift. */
    static constexpr std::uint32_t bucketShift = 6;

    /** Cap on distinct address buckets tracked individually. */
    static constexpr std::size_t maxTrackedBuckets = std::size_t(1) << 16;

    /** One tracked address bucket and its violation counts. */
    struct Offender
    {
        Addr bucket = 0;
        std::uint64_t bus = 0;
        std::uint64_t map = 0;

        std::uint64_t total() const { return bus + map; }
    };

    /** One (requester, prior-owner) cell of the attribution matrix. */
    struct PairCount
    {
        CoreId requester = 0;
        CoreId prior = invalidCore; //!< invalidCore = no prior owner
        std::uint64_t bus = 0;
        std::uint64_t map = 0;
    };

    /** Size the pair matrix for @p num_cores and clear everything. */
    void reset(std::uint32_t num_cores);

    /**
     * Record one counted violation.
     *
     * @param kind   bus or map monitor
     * @param line   cache-line address of the access
     * @param requester  core whose message tripped the monitor
     * @param prior  core that last advanced the monitor (invalidCore
     *               when the monitor had no owner yet)
     * @param slack  monitor timestamp minus message timestamp — how
     *               far in the past the late access landed
     */
    void record(ViolationKind kind, Addr line, CoreId requester,
                CoreId prior, Tick slack);

    std::uint64_t busTotal() const { return busTotal_; }
    std::uint64_t mapTotal() const { return mapTotal_; }
    std::uint64_t total() const { return busTotal_ + mapTotal_; }

    /** Slack-at-detection distribution per violation kind. */
    const Log2Histogram &busSlack() const { return busSlack_; }
    const Log2Histogram &mapSlack() const { return mapSlack_; }

    /** Violations whose bucket fell past the tracking cap. */
    std::uint64_t untrackedBuckets() const { return untracked_; }

    /** @return number of cores the pair matrix was sized for. */
    std::uint32_t numCores() const { return numCores_; }

    /**
     * @return the k address buckets with the most violations, sorted
     * by total count descending (ties broken by bucket ascending so
     * the report is deterministic).
     */
    std::vector<Offender> topOffenders(std::size_t k) const;

    /** @return all (requester, prior) cells with nonzero counts. */
    std::vector<PairCount> nonzeroPairs() const;

    /** Checkpoint participation (rolled back with ViolationStats). */
    void save(SnapshotWriter &writer) const;
    void restore(SnapshotReader &reader);

  private:
    /** Flat index into the pair matrices. */
    std::size_t
    pairIndex(CoreId requester, CoreId prior) const
    {
        // Prior slot numCores_ aggregates "no prior owner".
        const std::uint32_t p = prior == invalidCore
                                    ? numCores_
                                    : (prior < numCores_ ? prior : numCores_);
        const std::uint32_t r = requester < numCores_ ? requester : 0;
        return std::size_t(p) * numCores_ + r;
    }

    std::uint32_t numCores_ = 0;
    std::uint64_t busTotal_ = 0;
    std::uint64_t mapTotal_ = 0;
    std::uint64_t untracked_ = 0;
    Log2Histogram busSlack_;
    Log2Histogram mapSlack_;
    std::vector<std::uint64_t> busPair_; //!< (numCores_+1) x numCores_
    std::vector<std::uint64_t> mapPair_;
    std::unordered_map<Addr, Offender> buckets_;
};

/** Outcome of one adaptive-epoch evaluation. */
enum class BandVerdict {
    Hold,    //!< rate inside the dead zone, bound unchanged
    Grow,    //!< rate under the band, bound relaxed
    Shrink,  //!< rate over the band, bound tightened
    Restored //!< bound rewound by a checkpoint restore
};

/** @return stable lowercase name for a verdict. */
const char *bandVerdictName(BandVerdict v);

/** One adaptive-controller evaluation. */
struct DecisionRecord
{
    Tick cycle = 0;         //!< global time of the evaluation
    double rate = 0.0;      //!< measured violation rate
    BandVerdict verdict = BandVerdict::Hold;
    std::uint64_t oldBound = 0;
    std::uint64_t newBound = 0;
};

/** Kind of checkpoint-machinery episode. */
enum class EpisodeKind { Checkpoint, Rollback, Replay };

/** @return stable lowercase name for an episode kind. */
const char *episodeKindName(EpisodeKind k);

/** One checkpoint / rollback / replay episode and its host cost. */
struct EpisodeRecord
{
    EpisodeKind kind = EpisodeKind::Checkpoint;
    Tick cycle = 0;          //!< global time when the episode ended
    std::uint64_t detail = 0; //!< bytes (ckpt), wasted/replayed cycles
    std::uint64_t hostNs = 0; //!< wall time spent on the episode
};

/**
 * One degradation-ladder transition (see fault/recovery_policy.hh):
 * a demotion forced by a rollback storm, a checkpoint-integrity
 * failure or a pinned-at-minimum adaptive controller — or a
 * re-promotion attempt after the backoff elapsed. The from/to/reason
 * strings are static literals supplied by the recovery layer.
 */
struct TransitionRecord
{
    Tick cycle = 0;
    const char *from = "";
    const char *to = "";
    const char *reason = "";
};

/**
 * Append-only ledger of adaptive decisions, checkpoint episodes and
 * degradation transitions. Capped so a pathological run cannot
 * balloon the report; drops are counted, never silent.
 */
class AdaptiveDecisionLog
{
  public:
    static constexpr std::size_t maxRecords = std::size_t(1) << 16;

    void
    recordDecision(const DecisionRecord &d)
    {
        if (decisions_.size() < maxRecords)
            decisions_.push_back(d);
        else
            ++decisionsDropped_;
    }

    void
    recordEpisode(const EpisodeRecord &e)
    {
        if (episodes_.size() < maxRecords)
            episodes_.push_back(e);
        else
            ++episodesDropped_;
    }

    const std::vector<DecisionRecord> &decisions() const
    {
        return decisions_;
    }

    const std::vector<EpisodeRecord> &episodes() const
    {
        return episodes_;
    }

    void
    recordTransition(const TransitionRecord &t)
    {
        if (transitions_.size() < maxRecords)
            transitions_.push_back(t);
        else
            ++transitionsDropped_;
    }

    const std::vector<TransitionRecord> &transitions() const
    {
        return transitions_;
    }

    std::uint64_t decisionsDropped() const { return decisionsDropped_; }
    std::uint64_t episodesDropped() const { return episodesDropped_; }
    std::uint64_t transitionsDropped() const
    {
        return transitionsDropped_;
    }

    void
    clear()
    {
        decisions_.clear();
        episodes_.clear();
        transitions_.clear();
        decisionsDropped_ = 0;
        episodesDropped_ = 0;
        transitionsDropped_ = 0;
    }

  private:
    std::vector<DecisionRecord> decisions_;
    std::vector<EpisodeRecord> episodes_;
    std::vector<TransitionRecord> transitions_;
    std::uint64_t decisionsDropped_ = 0;
    std::uint64_t episodesDropped_ = 0;
    std::uint64_t transitionsDropped_ = 0;
};

/** The obs layer's own overhead, surfaced instead of lost. */
struct ObsSelfStats
{
    std::uint64_t traceRecords = 0;  //!< events kept by the trace
    std::uint64_t traceDropped = 0;  //!< events lost to full rings
    std::uint64_t traceBytes = 0;    //!< Chrome-trace bytes written
    std::uint64_t metricsRows = 0;   //!< sampler rows captured
    std::uint64_t metricsBytes = 0;  //!< metrics CSV bytes written
    std::uint64_t samplerHostNs = 0; //!< wall time spent sampling
    std::uint64_t ioErrors = 0;      //!< failed writer opens/closes
};

/**
 * Everything forensic an ObsSession collected over one run, moved
 * into RunResult at finish() so the report writer (and callers) see
 * it after the session is gone.
 */
struct ForensicsData
{
    ViolationLedger ledger;
    AdaptiveDecisionLog decisions;
    ObsSelfStats obs;
    ProfileReport profile; //!< host-time attribution (--profile)
    TraceSpanInfo trace;   //!< distributed-trace identity + anchor
    bool watchdogEnabled = false;
    std::uint64_t stallMs = 0;
    std::uint64_t stallDumps = 0;
    std::string lastStallDump;
};

} // namespace obs
} // namespace slacksim

#endif // SLACKSIM_OBS_FORENSICS_HH
