/**
 * @file
 * Lock-up free (non-blocking) L1 cache with MESI states, LRU
 * replacement and a small MSHR file, modeled after the paper's 16KB
 * L1 I/D caches kept coherent over the snooping bus.
 *
 * The cache is timing-only: it tracks tags and states, never data.
 * All bus traffic is emitted as BusMsg records the caller forwards to
 * the manager thread; fills and snoops arrive back the same way.
 */

#ifndef SLACKSIM_CACHE_L1_CACHE_HH
#define SLACKSIM_CACHE_L1_CACHE_HH

#include <cstdint>
#include <vector>

#include "cache/mesi.hh"
#include "stats/stats.hh"
#include "uncore/msg.hh"
#include "util/snapshot.hh"
#include "util/types.hh"

namespace slacksim {

/** Outcome of a core-side cache access. */
enum class L1Result : std::uint8_t {
    Hit,       //!< serviced locally; completes after hitLatency
    Miss,      //!< MSHR allocated, bus request emitted
    Merged,    //!< folded into an existing MSHR for the same line
    Blocked,   //!< cannot proceed now (no MSHR / waiter slots / conflict)
};

/** Who to wake when an outstanding miss completes. */
struct L1Waiter
{
    enum class Kind : std::uint8_t {
        LoadRob = 0,   //!< index = ROB slot of the waiting load
        StoreBuffer,   //!< store-buffer head retry
        Frontend,      //!< instruction fetch restart
    };
    Kind kind = Kind::LoadRob;
    std::uint8_t pad = 0; //!< named padding: MSHRs are copied raw
    std::uint16_t index = 0;
};

/** Configuration for one L1 cache instance. */
struct L1Params
{
    std::uint32_t sets = 64;
    std::uint32_t ways = 4;
    std::uint32_t lineBytes = 64;
    std::uint32_t mshrs = 8;
    Tick hitLatency = 1;
    bool instructionCache = false;
};

/**
 * One L1 cache. The owning core calls accessLoad/accessStore/
 * accessFetch during its cycle; the core's inbound-message handler
 * calls applyFill/applySnoop. All methods run on the core's thread.
 */
class L1Cache : public Snapshotable
{
  public:
    L1Cache(const L1Params &params, CoreId owner, CoreStats *stats);

    /** @return the line-aligned address containing @p a. */
    Addr
    lineAddr(Addr a) const
    {
        return a & ~static_cast<Addr>(params_.lineBytes - 1);
    }

    /**
     * Core load access. On a miss a GetS is appended to @p out and
     * @p waiter is registered; on Merged the waiter joins an existing
     * MSHR. @p now is the core's local time (request timestamp).
     */
    L1Result accessLoad(Addr addr, const L1Waiter &waiter, Tick now,
                        std::vector<BusMsg> &out);

    /**
     * Store-buffer head access. Hit requires M/E. A line in S emits
     * an Upgrade; an absent line emits GetM. The store buffer is the
     * implicit waiter.
     */
    L1Result accessStore(Addr addr, Tick now, std::vector<BusMsg> &out);

    /** Instruction fetch access (instruction caches only). */
    L1Result accessFetch(Addr addr, Tick now, std::vector<BusMsg> &out);

    /**
     * Apply a Fill or UpgradeAck. Dirty victims append PutM messages
     * to @p out. The woken waiters are appended to @p waiters.
     */
    void applyFill(const BusMsg &msg, Tick now, std::vector<BusMsg> &out,
                   std::vector<L1Waiter> &waiters);

    /** Apply SnoopInv / SnoopDown. Timing-only; never emits data. */
    void applySnoop(const BusMsg &msg);

    /** @return the state currently held for @p addr's line. */
    MesiState probe(Addr addr) const;

    /** @return number of MSHRs currently in use. */
    std::uint32_t mshrsInUse() const;

    /** @return true when an MSHR is outstanding for @p addr's line. */
    bool mshrPending(Addr addr) const;

    /** Hit latency configured for this cache. */
    Tick hitLatency() const { return params_.hitLatency; }

    /**
     * Invariant check used by tests: at most `ways` valid lines per
     * set, no duplicate tags within a set. Panics on violation.
     */
    void checkInvariants() const;

    void save(SnapshotWriter &writer) const override;
    void restore(SnapshotReader &reader) override;

  private:
    /** One tag-array entry. */
    struct Line
    {
        Addr tag = 0;             //!< full line address
        MesiState state = MesiState::Invalid;
        std::uint8_t pad[3] = {}; //!< named padding: copied raw
        std::uint32_t lruStamp = 0;
    };

    /** One miss-status holding register. */
    struct Mshr
    {
        Addr line = 0;
        bool valid = false;
        MsgType request = MsgType::GetS;
        std::uint8_t numWaiters = 0;
        std::uint8_t pad0 = 0;    //!< named padding: copied raw
        L1Waiter waiters[14];
        std::uint32_t pad1 = 0;
    };

    std::uint32_t setIndex(Addr line_addr) const;
    Line *findLine(Addr line_addr);
    const Line *findLine(Addr line_addr) const;
    Mshr *findMshr(Addr line_addr);
    Mshr *allocMshr(Addr line_addr, MsgType request);
    bool addWaiter(Mshr &mshr, const L1Waiter &waiter);
    /** Install a line, evicting if needed (may emit PutM). */
    Line &installLine(Addr line_addr, MesiState state, Tick now,
                      std::vector<BusMsg> &out);
    void touchLru(Line &line);

    L1Params params_;
    std::uint32_t lineShift_; //!< log2(lineBytes)
    CoreId owner_;
    CoreStats *stats_;
    std::vector<Line> lines_;  //!< sets * ways entries, set-major
    std::vector<Mshr> mshrs_;
    std::uint32_t lruClock_ = 0;
    SeqNum nextSeq_ = 0;       //!< per-cache message sequence numbers
};

} // namespace slacksim

#endif // SLACKSIM_CACHE_L1_CACHE_HH
