/**
 * @file
 * One simulated core bundled with its L1 caches, workload trace
 * cursor, event queues and local clock — the unit a core thread (or
 * the serial engine) advances one target cycle at a time.
 */

#ifndef SLACKSIM_CORE_CORE_COMPLEX_HH
#define SLACKSIM_CORE_CORE_COMPLEX_HH

#include <algorithm>
#include <atomic>
#include <vector>

#include "cache/l1_cache.hh"
#include "core/config.hh"
#include "cpu/ooo_core.hh"
#include "stats/stats.hh"
#include "uncore/msg.hh"
#include "util/logging.hh"
#include "util/snapshot.hh"
#include "util/spsc_queue.hh"
#include "util/types.hh"
#include "workload/trace.hh"

namespace slacksim {

/**
 * Core + L1I + L1D + queues. cycle() is called by exactly one thread;
 * the manager thread reads localTime() and uses outQ()/inQ() from the
 * other side.
 */
class CoreComplex : public Snapshotable
{
  public:
    /** Messages applied from the InQ per target cycle (bus width). */
    static constexpr std::uint32_t inboundPerCycle = 8;
    /** OutQ headroom required before a cycle may execute. */
    static constexpr std::uint32_t outboundHeadroom = 16;

    CoreComplex(const SimConfig &config, CoreId id,
                const TraceProgram *trace, Addr code_base);

    /** What happened when the core was asked to advance. */
    enum class CycleOutcome : std::uint8_t
    {
        Progress,     //!< executed; local time advanced
        Backpressure, //!< full OutQ; let the manager drain, retry
        WaitInbound,  //!< inert with empty InQ and no pacing headroom
                      //!< to skip into: only a delivery can wake it
    };

    /** How an idle skip accounts the stall cycles it jumps over. */
    enum class StallAccounting : std::uint8_t
    {
        /** Slack schemes: the inert cycle's increments once, then
         *  idleCycles for every cycle jumped over. */
        Idle,
        /** Sorted service: each skipped cycle adds the inert cycle's
         *  increments once, so a skip cannot be told apart from
         *  stepping every cycle. */
        Exact,
    };

    /**
     * Execute one target cycle at the current local time.
     *
     * @param max_local pacing limit: the highest cycle index this
     * core may execute. When the core is *inert* (nothing can change
     * until an inbound message or a scheduled completion), its clock
     * jumps directly to the next relevant time instead of burning one
     * host iteration per stall cycle — the conservative-PDES idle
     * skip that makes unbounded/large-slack runs tractable. The jump
     * never passes max_local + 1, an InQ entry's timestamp, or an
     * internal completion time.
     *
     * @param skip_budget upper bound on how many cycles one call may
     * advance. Engines pass their burst budget so an inert core moves
     * at the same host-visible pace as a busy one; otherwise a core
     * waiting for a fill would leap the whole pacing window before
     * the manager could deliver it, inflating simulated time.
     *
     * @param accounting how the skipped stall cycles are counted.
     *
     * Under either accounting, a core a full evaluation found inert
     * is re-entered in O(1) until its next wake (reenterInert()): the
     * inert cycle's counter increments are added without evaluating
     * the pipeline again, so every counter and clock ends as a full
     * evaluation would leave it.
     */
    CycleOutcome cycle(Tick max_local,
                       std::uint32_t skip_budget = 0xffffffff,
                       StallAccounting accounting =
                           StallAccounting::Idle);

    /**
     * The O(1) re-entry cycle() takes for a core a full evaluation
     * found inert, called directly: one call advances the clock as
     * far as cycle() would. @pre the core is inert and @p wake, its
     * wakeHint(), lies beyond its clock.
     *
     * Idle accounting keeps the OutQ headroom check of the
     * evaluation it replaces and adds the inert cycle's increments
     * once for the current cycle. Exact accounting adds them for
     * every skipped cycle, lazily: the skipped cycles are pended and
     * folded into the counters before the next full evaluation or
     * Idle re-entry and on every stats() or save(). An inert cycle
     * commits nothing, so committedUops() needs no fold.
     */
    CycleOutcome reenterInert(Tick wake, Tick max_local,
                              std::uint32_t skip_budget,
                              StallAccounting accounting);

    /**
     * @return the earliest cycle at which this core may emit a
     * message or change state: its clock, or, once a full evaluation
     * found the core inert, the earlier of its next timer completion
     * and its InQ head (never below the clock). A delivery that
     * arrives later can only make the core wake earlier.
     */
    Tick
    wakeHint() const
    {
        const Tick now = localTime();
        return inert_ ? std::max(now, nextWake()) : now;
    }

    /** @return this core's current local clock. */
    Tick
    localTime() const
    {
        return localTime_.load(std::memory_order_acquire);
    }

    /** Manager-side override during rollback (core must be paused). */
    void
    setLocalTime(Tick t)
    {
        localTime_.store(t, std::memory_order_release);
    }

    /**
     * @return the local clock atomic itself, for observers that need
     * a stable address to poll (e.g. the log thread context).
     */
    const std::atomic<Tick> &localClock() const { return localTime_; }

    /** @return true once the core has committed its whole trace. */
    bool finished() const { return core_.finished(); }

    /** @return committed micro-ops so far (core-thread side). */
    std::uint64_t committedUops() const { return core_.committedUops(); }

    /** @return full pipeline evaluations so far (host-side work
     *  count: never reset, rolled back or serialized). */
    std::uint64_t evaluations() const { return evaluations_; }

    /** @return O(1) re-entries of a core known to be inert (host-side
     *  work count, like evaluations()). */
    std::uint64_t inertReentries() const { return inertReentries_; }

    /** Zero this core's statistics (warmup discard). */
    void
    resetStats()
    {
        stats_ = CoreStats{};
        pendingInert_ = 0;
    }

    CoreId id() const { return id_; }
    SpscQueue<BusMsg> &outQ() { return outQ_; }
    SpscQueue<BusMsg> &inQ() { return inQ_; }
    const CoreStats &
    stats() const
    {
        foldInert();
        return stats_;
    }
    OooCore &core() { return core_; }
    L1Cache &l1d() { return l1d_; }
    L1Cache &l1i() { return l1i_; }

    void save(SnapshotWriter &writer) const override;
    void restore(SnapshotReader &reader) override;

  private:
    /** Evaluate the pipeline for cycle @p now. @return true when the
     *  cycle changed anything (see OooCore::cycle). */
    bool step(Tick now);

    /** @return min(next timer completion, InQ head timestamp). */
    Tick
    nextWake() const
    {
        Tick wake = core_.earliestSelfWake();
        if (const BusMsg *head = inQ_.front())
            wake = std::min(wake, head->ts);
        return wake;
    }

    /** Advance an inert core from cycle @p now: account the cycles
     *  from @p skip_from on as @p accounting says and move the clock
     *  to the next relevant time, at most @p max_local + 1. */
    CycleOutcome skipInert(Tick now, Tick skip_from, Tick wake,
                           Tick max_local, std::uint32_t skip_budget,
                           StallAccounting accounting);

    /** Add the pended exact-skip cycles' increments to the counters. */
    void
    foldInert() const
    {
        if (pendingInert_ != 0) {
            stats_.addScaled(inertDelta_, pendingInert_);
            pendingInert_ = 0;
        }
    }

    // What an O(1) re-entry touches comes first, in one cache line
    // (the queues' alignment aligns the object).
    std::atomic<Tick> localTime_{0};
    /** Set by a full evaluation that found the core inert; cleared
     *  by the next full evaluation and by restore(). Derived state:
     *  never serialized. */
    bool inert_ = false;
    /** Exact-skipped cycles whose inertDelta_ increments stats_ does
     *  not hold yet. Only the manager drives Exact accounting. */
    mutable std::uint64_t pendingInert_ = 0;
    std::uint64_t evaluations_ = 0;
    std::uint64_t inertReentries_ = 0;
    CoreId id_;
    /** Mutable for foldInert(): a stats read folds what is pended. */
    mutable CoreStats stats_;
    /** The inert cycle's counter increments (valid while inert_). */
    CoreStats inertDelta_;
    L1Cache l1d_;
    L1Cache l1i_;
    OooCore core_;
    SpscQueue<BusMsg> outQ_;
    SpscQueue<BusMsg> inQ_;
    std::vector<BusMsg> scratch_;
    SeqNum nextSeq_ = 0;
};

inline CoreComplex::CycleOutcome
CoreComplex::reenterInert(Tick wake, Tick max_local,
                          std::uint32_t skip_budget,
                          StallAccounting accounting)
{
    const Tick now = localTime_.load(std::memory_order_relaxed);
    SLACKSIM_ASSERT(inert_ && wake > now, "re-entry of a live core");
    if (accounting == StallAccounting::Exact) {
        // An exact skip counts from `now` itself, the first cycle it
        // stands for.
        ++inertReentries_;
        return skipInert(now, now, wake, max_local, skip_budget,
                         accounting);
    }
    // Idle re-entry: keep the check the evaluation it replaces made,
    // and count cycle `now` as evaluating it would.
    if (!outQ_.hasFreeSpace(outboundHeadroom))
        return CycleOutcome::Backpressure;
    ++inertReentries_;
    foldInert();
    stats_.add(inertDelta_);
    return skipInert(now, now + 1, wake, max_local, skip_budget,
                     accounting);
}

inline CoreComplex::CycleOutcome
CoreComplex::skipInert(Tick now, Tick skip_from, Tick wake,
                       Tick max_local, std::uint32_t skip_budget,
                       StallAccounting accounting)
{
    // The core is inert: identical behavior every cycle until the
    // earliest of (a) an already-scheduled internal completion,
    // (b) the InQ head becoming applicable, (c) the pacing limit.
    Tick target = wake;
    if (target == maxTick) {
        // Only a future delivery can wake the core. With pacing
        // headroom we bulk-skip the stall cycles up to the limit;
        // a free-running (unbounded) core instead freezes until
        // the manager delivers something.
        if (max_local >= maxTick - 1)
            return CycleOutcome::WaitInbound;
        target = max_local + 1;
    }
    Tick next = skip_from;
    if (target > skip_from) {
        next = std::min({target, max_local + 1,
                         now + std::max<Tick>(skip_budget, 1)});
        if (next <= now)
            return CycleOutcome::WaitInbound; // no headroom left
    }
    if (accounting == StallAccounting::Exact)
        pendingInert_ += next - skip_from;
    else
        stats_.idleCycles += next - skip_from;
    localTime_.store(next, std::memory_order_release);
    return CycleOutcome::Progress;
}

} // namespace slacksim

#endif // SLACKSIM_CORE_CORE_COMPLEX_HH
