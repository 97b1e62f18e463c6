/**
 * @file
 * Timing model of one target core: a 4-wide out-of-order pipeline in
 * the style of the paper's NetBurst-like target (fetch/dispatch,
 * dataflow issue, execute-at-execute, in-order commit) with a 64-entry
 * ROB, a store buffer that drains at commit, and non-blocking L1
 * access through MSHRs. The core consumes a workload TraceProgram and
 * expands its records into micro-ops.
 */

#ifndef SLACKSIM_CPU_OOO_CORE_HH
#define SLACKSIM_CPU_OOO_CORE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "cache/l1_cache.hh"
#include "stats/stats.hh"
#include "uncore/msg.hh"
#include "util/snapshot.hh"
#include "util/types.hh"
#include "workload/trace.hh"

namespace slacksim {

/** Pipeline configuration for one core. */
struct CoreParams
{
    std::uint32_t fetchWidth = 4;
    std::uint32_t issueWidth = 4;
    std::uint32_t commitWidth = 4;
    std::uint32_t robSize = 64; //!< power of two, at most 64
    std::uint32_t sbSize = 8;   //!< power of two
    std::uint32_t loadPorts = 2;
    Tick aluLatency = 1;
};

/**
 * One out-of-order core. The caller drives cycle() once per target
 * clock and routes inbound manager messages to handleInbound();
 * outbound bus traffic is appended to the vector passed to cycle().
 */
class OooCore : public Snapshotable
{
  public:
    /**
     * @param params pipeline configuration
     * @param id this core's index
     * @param trace the workload thread to execute (not owned)
     * @param l1d data cache (not owned)
     * @param l1i instruction cache (not owned)
     * @param stats statistics sink (not owned)
     * @param code_base base target address of this thread's code
     */
    OooCore(const CoreParams &params, CoreId id,
            const TraceProgram *trace, L1Cache *l1d, L1Cache *l1i,
            CoreStats *stats, Addr code_base);

    /**
     * Simulate one target cycle at local time @p now.
     * @return true when any architectural state changed (something
     * fetched, issued, completed, committed, drained, or a message
     * was emitted). A false return means the core is *inert*: with no
     * inbound message it will behave identically every cycle until
     * earliestSelfWake(), enabling the caller to skip stall cycles.
     */
    bool cycle(Tick now, std::vector<BusMsg> &out);

    /**
     * @return the earliest future tick at which an already-issued
     * operation completes by itself, or maxTick when the core can
     * only be woken by an inbound message.
     */
    Tick
    earliestSelfWake() const
    {
        // pending_ holds exactly the timer-completed uops still in
        // flight; every ripe entry was popped by this cycle's
        // writeback, so the front is the earliest strictly-future
        // completion.
        return pendingHead_ == pendingTail_
                   ? maxTick
                   : pending_[pendingHead_ & robMask_].first;
    }

    /** Apply one manager->core message (fill, snoop, sync grant). */
    void handleInbound(const BusMsg &msg, Tick now,
                       std::vector<BusMsg> &out);

    /** @return true once the trace is fully committed. */
    bool finished() const { return finished_; }

    /** @return committed micro-op count so far. */
    std::uint64_t committedUops() const { return stats_->committedInstrs; }

    /** @return number of in-flight ROB entries (tests). */
    std::uint32_t robOccupancy() const
    {
        return static_cast<std::uint32_t>(tailSeq_ - headSeq_);
    }

    /** @return number of buffered stores (tests). */
    std::uint32_t storeBufferOccupancy() const
    {
        return static_cast<std::uint32_t>(sbTail_ - sbHead_);
    }

    void save(SnapshotWriter &writer) const override;
    void restore(SnapshotReader &reader) override;

  private:
    /** Micro-op kinds the trace expands into. */
    enum class UopKind : std::uint8_t {
        Alu, Load, Store, Lock, Unlock, Barrier,
    };

    /** One reorder-buffer slot. */
    struct RobEntry
    {
        Addr addr = 0;
        SeqNum seq = 0;
        SeqNum depSeq = 0;  //!< producing load's seq, 0 = none
        Tick doneAt = 0;
        UopKind kind = UopKind::Alu;
        std::uint8_t issued = 0;
        std::uint8_t done = 0;
        std::uint8_t waitingFill = 0;
        std::uint16_t sync = 0;
        std::uint16_t pad = 0; //!< named padding: copied raw
    };

    /** One store-buffer slot. */
    struct SbEntry
    {
        Addr addr = 0;
    };

    /** Compact digest of all progress-relevant state. */
    struct Fingerprint
    {
        SeqNum headSeq, tailSeq;
        std::uint64_t sbHead, sbTail, traceIndex;
        std::uint64_t issuedCount, doneCount;
        std::uint32_t intraOffset;
        std::uint8_t flags;

        bool
        operator==(const Fingerprint &o) const = default;
    };

    Fingerprint fingerprint() const;

    RobEntry &slot(SeqNum seq) { return rob_[seq & robMask_]; }
    const RobEntry &
    slot(SeqNum seq) const
    {
        return rob_[seq & robMask_];
    }

    bool robFull() const { return tailSeq_ - headSeq_ >= params_.robSize; }
    bool robEmpty() const { return tailSeq_ == headSeq_; }
    bool sbFull() const { return sbTail_ - sbHead_ >= params_.sbSize; }
    bool sbEmpty() const { return sbTail_ == sbHead_; }

    void writeback(Tick now);
    void pushPending(Tick done_at, SeqNum seq);
    void rebuildDerived();
    void commit(Tick now);
    void drainStoreBuffer(Tick now, std::vector<BusMsg> &out);
    void handleHeadSync(Tick now, std::vector<BusMsg> &out);
    void issue(Tick now, std::vector<BusMsg> &out);
    void fetch(Tick now, std::vector<BusMsg> &out);
    bool dispatchUop(UopKind kind, Addr addr, std::uint16_t sync,
                     SeqNum dep_seq);
    void updateFinished();

    CoreParams params_;
    CoreId id_;
    const TraceProgram *trace_;
    L1Cache *l1d_;
    L1Cache *l1i_;
    CoreStats *stats_;
    Addr codeBase_;

    std::vector<RobEntry> rob_;
    SeqNum headSeq_ = 1;
    SeqNum tailSeq_ = 1;
    /** ROB and store-buffer sizes are powers of two: slot = seq & mask. */
    std::uint64_t robMask_;
    std::uint64_t sbMask_;

    /**
     * One bit per ROB slot that holds a dispatched-but-unissued uop.
     * issue() visits only these, in program order from the head's
     * slot. Derived state: rebuilt on restore.
     */
    std::uint64_t unissued_ = 0;

    /**
     * Ring of (doneAt, seq), sorted by doneAt, for every issued-but-
     * incomplete uop whose completion is a pure timer (Alu, Store
     * address-gen, Load hits). Load misses (completed by fills) and
     * sync ops (completed by grants) are never pushed, so a popped
     * entry is always live: writeback() pops ripe entries from the
     * front and earliestSelfWake() reads the front. pushPending()
     * inserts from the back, in O(1) when completions arrive in
     * timestamp order. Holds at most one entry per ROB slot, so it
     * shares robMask_. Derived state: rebuilt on restore.
     */
    std::vector<std::pair<Tick, SeqNum>> pending_;
    std::uint64_t pendingHead_ = 0; //!< free-running front index
    std::uint64_t pendingTail_ = 0; //!< free-running back index

    /** Waiters woken by one fill; reused across handleInbound(). */
    std::vector<L1Waiter> fillWaiters_;

    std::vector<SbEntry> sb_;
    std::uint64_t sbHead_ = 0;
    std::uint64_t sbTail_ = 0;
    std::uint8_t sbWaitingFill_ = 0;

    std::uint64_t traceIndex_ = 0;
    std::uint32_t intraOffset_ = 0;
    std::uint64_t pcCursor_ = 0;
    /** (pcCursor_ * 4) % codeFootprint, kept incrementally. Derived
     *  state: recomputed on restore. */
    Addr codeOffset_ = 0;
    std::uint8_t fetchWaitingFill_ = 0;
    SeqNum lastLoadSeq_ = 0;

    std::uint8_t syncSent_ = 0;
    std::uint8_t syncGranted_ = 0;

    std::uint8_t finished_ = 0;
    SeqNum nextMsgSeq_ = 0;
    std::uint64_t issuedCount_ = 0; //!< monotone issue transitions
    std::uint64_t doneCount_ = 0;   //!< monotone completion transitions
};

} // namespace slacksim

#endif // SLACKSIM_CPU_OOO_CORE_HH
