/**
 * @file
 * The manager thread's model of everything below the L1s: the split
 * request/response snooping bus, the banked shared L2, the memory
 * latency, the global cache status map, and the sync arbiter.
 *
 * service() consumes one core request and produces the outbound
 * messages (fills, snoops, grants). The *order* in which the engine
 * feeds requests to service() is the crux of the paper:
 *  - sorted (timestamp) order  -> cycle-by-cycle accuracy;
 *  - arrival order             -> slack simulation (quantum included),
 *    where inversions are detected as bus violations and map
 *    violations against the per-resource monitoring timestamps.
 */

#ifndef SLACKSIM_UNCORE_UNCORE_HH
#define SLACKSIM_UNCORE_UNCORE_HH

#include <cstdint>
#include <vector>

#include "cache/mesi.hh"
#include "stats/stats.hh"
#include "util/histogram.hh"
#include "uncore/global_map.hh"
#include "uncore/l2_tags.hh"
#include "uncore/msg.hh"
#include "uncore/sync_arbiter.hh"
#include "util/snapshot.hh"
#include "util/types.hh"

namespace slacksim {

namespace obs {
class ViolationLedger;
} // namespace obs

/** Uncore configuration. */
struct UncoreParams
{
    std::uint32_t numCores = 8;
    L2Params l2;
    CoherenceProtocol protocol = CoherenceProtocol::MESI;
    Tick c2cLatency = 12;        //!< owner-to-requester transfer
    Tick syncLatency = 6;        //!< manager sync grant latency
    Tick busRequestCycles = 1;   //!< request-bus occupancy per request
    Tick busResponseCycles = 2;  //!< response-bus occupancy per data
    std::uint32_t numLocks = 0;
    std::uint32_t numBarriers = 0;
};

/** A message the uncore wants delivered to a core's InQ. */
struct Outbound
{
    CoreId dst = invalidCore;
    BusMsg msg;
};

/** Violations detected while servicing one request. */
struct ServiceResult
{
    bool busViolation = false;
    bool mapViolation = false;

    bool any() const { return busViolation || mapViolation; }
};

/** The manager-side uncore model. */
class Uncore : public Snapshotable
{
  public:
    Uncore(const UncoreParams &params, UncoreStats *stats,
           ViolationStats *violations);

    /**
     * Service one core->manager message, appending the responses and
     * snoops to @p out. @return the violations this request caused.
     */
    ServiceResult service(const BusMsg &msg, std::vector<Outbound> &out);

    /**
     * @return the conservative lookahead: the least gap between a
     * request's timestamp ts and the timestamp of any message its
     * service delivers, whatever the uncore state or service order.
     * It is the minimum over every delivery path:
     *  - snoops and back-invalidations at grant + 1 >= ts + 2;
     *  - UpgradeAck at grant + 2 >= ts + 3;
     *  - fills at >= ts + 1 + min(L2 hit, L2 miss, c2c latency)
     *    + busResponseCycles;
     *  - sync grants at >= ts + syncLatency.
     * service() asserts that every outbound message meets it.
     */
    Tick lookahead() const { return lookahead_; }

    /** Distribution of per-request bus queueing delays (cycles). */
    const Log2Histogram &busQueueHistogram() const
    {
        return busQueueHist_;
    }

    /** Read access for tests and engine bookkeeping. */
    const GlobalCacheMap &map() const { return map_; }
    GlobalCacheMap &map() { return map_; }
    const L2Tags &l2() const { return l2_; }
    const SyncArbiter &sync() const { return sync_; }
    Tick requestBusFreeAt() const { return reqBusFreeAt_; }

    /**
     * Enable/disable violation *counting* (detection still updates
     * the monitors). Disabled during speculative cycle-by-cycle
     * replay so pre-checkpoint time distortions that linger in the
     * restored queues cannot inflate the rate or re-trigger rollback.
     */
    void setViolationCounting(bool enabled) { countViolations_ = enabled; }

    /** @return true while violation counting is enabled. */
    bool violationCounting() const { return countViolations_; }

    /**
     * Wire (or unwire, with nullptr) the forensics ledger. The ledger
     * follows the counting gate — it only records violations that
     * land in ViolationStats, so the two always agree — and it is
     * snapshotted with the uncore so rollbacks rewind it in lockstep.
     * Wiring must not change between a checkpoint and its restore.
     */
    void setLedger(obs::ViolationLedger *ledger) { ledger_ = ledger; }

    /** @return the wired forensics ledger, or nullptr. */
    obs::ViolationLedger *ledger() const { return ledger_; }

    /** Clear histogram state (warmup discard; counters are owned by
     *  the caller-provided stat sinks). */
    void resetStats() { busQueueHist_.clear(); }

    void save(SnapshotWriter &writer) const override;
    void restore(SnapshotReader &reader) override;

  private:
    ServiceResult serviceBusRequest(const BusMsg &msg,
                                    std::vector<Outbound> &out);
    void serviceSync(const BusMsg &msg, std::vector<Outbound> &out);
    /** L2 access for the data of @p line. @return data-ready tick. */
    Tick accessL2(Addr line, Tick start, bool install_on_miss,
                  std::vector<Outbound> &out, Tick snoop_ts);
    /** Apply an L2 victim's inclusive back-invalidation. */
    void backInvalidate(Addr victim, Tick snoop_ts,
                        std::vector<Outbound> &out);
    void sendSnoop(CoreId dst, CacheKind cache, MsgType type, Addr line,
                   Tick ts, std::vector<Outbound> &out);
    Tick scheduleResponse(Tick data_ready);

    UncoreParams params_;
    Tick lookahead_;
    UncoreStats *stats_;
    ViolationStats *violations_;
    GlobalCacheMap map_;
    L2Tags l2_;
    SyncArbiter sync_;

    Tick busMonitorTs_ = 0;      //!< bus violation monitor variable
    CoreId busMonitorSrc_ = invalidCore; //!< who last advanced it
    Tick reqBusFreeAt_ = 0;
    Tick respBusFreeAt_ = 0;
    std::vector<Tick> bankFreeAt_;
    std::vector<SyncGrantMsg> grants_; //!< reused by serviceSync()
    SeqNum nextSeq_ = 0;
    Log2Histogram busQueueHist_;
    bool countViolations_ = true; //!< engine-controlled, not snapshot
    obs::ViolationLedger *ledger_ = nullptr; //!< optional forensics
};

} // namespace slacksim

#endif // SLACKSIM_UNCORE_UNCORE_HH
