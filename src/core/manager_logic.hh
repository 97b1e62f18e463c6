/**
 * @file
 * Manager-side event plumbing shared by the serial and parallel
 * engines: pulling OutQ entries (the paper's GQ consolidation),
 * servicing them in arrival or timestamp-sorted order, delivering the
 * responses with overflow handling, tracking per-checkpoint-interval
 * violation data, and raising rollback requests in speculative mode.
 *
 * Sorted (CC-accurate) service is a k-way merge: every source's
 * events arrive timestamp-monotone (cores stamp ts with their
 * nondecreasing local clock and seq with a per-core counter), so the
 * manager keeps one staging run per source and a tournament tree over
 * the run heads. Pumping an event into a non-empty run is O(1);
 * servicing the global minimum replays one O(log C) tree path. The
 * service order is exactly the (ts, src, seq) order of the old global
 * heap: within a run (fixed src) events are already (ts, seq)-sorted,
 * and across runs the tree picks the least (ts, src) head.
 *
 * All methods run on the manager's thread.
 */

#ifndef SLACKSIM_CORE_MANAGER_LOGIC_HH
#define SLACKSIM_CORE_MANAGER_LOGIC_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "core/config.hh"
#include "core/run_result.hh"
#include "core/sim_system.hh"
#include "util/core_bitset.hh"
#include "util/merge_tree.hh"
#include "util/snapshot.hh"

namespace slacksim {

/** Manager event-flow logic. */
class ManagerLogic : public Snapshotable
{
  public:
    ManagerLogic(SimSystem &sys, const EngineConfig &engine,
                 HostStats *host);

    /** Select sorted (CC-accurate) vs arrival-order servicing. */
    void setSorted(bool sorted) { sorted_ = sorted; }

    /**
     * Pull every visible OutQ entry of core @p c. Arrival order:
     * service immediately. Sorted: stash into the per-source staging
     * run until serviceSorted() releases it. @return events pulled.
     */
    std::size_t pumpCore(CoreId c);

    /** pumpCore() over all cores. @return events pulled. */
    std::size_t pumpAll();

    /**
     * Sorted mode: service staged events with ts < @p safe_time in
     * (ts, src, seq) order. @return events serviced.
     */
    std::size_t serviceSorted(Tick safe_time);

    /** Retry overflowed InQ deliveries. Returns at once when none
     *  is parked. */
    void flushOverflow();

    /**
     * Invoke @p fn(CoreId) for every core that received an InQ
     * delivery since the last drain, then clear the set. The parallel
     * engine wakes these cores: an inert free-running core parks
     * until a delivery arrives.
     */
    template <typename Fn>
    void
    drainDelivered(Fn &&fn)
    {
        delivered_.drain(static_cast<Fn &&>(fn));
    }

    /** @return the least timestamp of any staged (sorted mode, not
     *  yet serviced) event, or maxTick when nothing is staged. */
    Tick earliestStaged() const;

    /** @return true while a delivery waits for InQ space in an
     *  overflow deque, out of sight of its core. */
    bool overflowPending() const { return overflowCount_ != 0; }

    /** @return sorted-service staging depth (metrics sampling). */
    std::size_t pendingDepth() const { return stagedCount_; }

    /** Arm/disarm violation-triggered rollback requests. */
    void armRollback(bool armed) { rollbackArmed_ = armed; }

    /** @return true when a tracked violation requested a rollback. */
    bool rollbackRequested() const { return rollbackRequested_; }

    /** Request a rollback from outside the violation monitors (fault
     *  injection's spurious-rollback). Honors the arming gate. */
    void requestRollback()
    {
        if (rollbackArmed_)
            rollbackRequested_ = true;
    }

    /** Clear the rollback request (after acting on it). */
    void clearRollbackRequest() { rollbackRequested_ = false; }

    /** Begin a new checkpoint interval at simulated time @p start. */
    void beginInterval(Tick start);

    /** Close the open interval and record it. */
    void closeInterval();

    /** Discard the open interval without recording (rollback path). */
    void abortInterval() { intervalOpen_ = false; }

    /** @return per-interval measurement records (host-side). */
    const std::vector<IntervalRecord> &intervals() const
    {
        return intervals_;
    }

    /** Sorted-mode staged events + delivery overflow are simulated
     *  state and participate in checkpoints. */
    void save(SnapshotWriter &writer) const override;
    void restore(SnapshotReader &reader) override;

  private:
    /**
     * Orders the staging runs by their head event's (ts, src) key;
     * the per-run seq order supplies the final tie-break for free.
     * Empty runs sort last (exhausted stream = infinite key).
     */
    struct HeadLess
    {
        const std::vector<std::deque<BusMsg>> *runs;

        bool
        operator()(std::uint32_t a, std::uint32_t b) const
        {
            const auto &ra = (*runs)[a];
            const auto &rb = (*runs)[b];
            if (ra.empty())
                return false;
            if (rb.empty())
                return true;
            if (ra.front().ts != rb.front().ts)
                return ra.front().ts < rb.front().ts;
            return a < b;
        }
    };

    void stash(const BusMsg &msg);
    void serviceOne(const BusMsg &msg);
    void deliver(const Outbound &o);
    void markDelivered(CoreId c);

    SimSystem &sys_;
    EngineConfig engine_;
    HostStats *host_;
    bool sorted_ = false;

    /** Per-source timestamp-monotone staging runs (sorted mode). */
    std::vector<std::deque<BusMsg>> staging_;
    std::size_t stagedCount_ = 0;
    /** Tournament tree over the run heads; declared after staging_,
     *  which its constructor reads. */
    MergeTree<HeadLess> merge_;
    /** Batch-pump scratch (pumpCore sorted path). */
    std::vector<BusMsg> pumpScratch_;

    CoreBitset delivered_;
    std::vector<std::deque<BusMsg>> overflow_;
    /** Messages parked in overflow_, all cores together. */
    std::size_t overflowCount_ = 0;
    std::vector<Outbound> outboundScratch_;

    bool rollbackArmed_ = false;
    bool rollbackRequested_ = false;

    bool intervalOpen_ = false;
    IntervalRecord current_;
    std::vector<IntervalRecord> intervals_;
};

} // namespace slacksim

#endif // SLACKSIM_CORE_MANAGER_LOGIC_HH
