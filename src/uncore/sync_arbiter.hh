/**
 * @file
 * Manager-side arbitration of workload locks and barriers.
 *
 * The paper's workloads synchronize through MP_Simplesim's parallel
 * programming APIs *inside* the simulator, which is why simulated-
 * workload-state violations cannot occur. This component is our
 * equivalent: lock acquire/release and barrier arrival requests reach
 * the manager as messages and grants flow back as InQ entries.
 */

#ifndef SLACKSIM_UNCORE_SYNC_ARBITER_HH
#define SLACKSIM_UNCORE_SYNC_ARBITER_HH

#include <cstdint>
#include <vector>

#include "stats/stats.hh"
#include "uncore/msg.hh"
#include "util/snapshot.hh"
#include "util/types.hh"

namespace slacksim {

/** A grant the arbiter wants delivered to a core. */
struct SyncGrantMsg
{
    CoreId dst = invalidCore;
    Tick ts = 0;
    std::uint16_t sync = 0;
};

/** Lock and barrier arbitration. */
class SyncArbiter : public Snapshotable
{
  public:
    /**
     * @param num_locks number of workload lock objects
     * @param num_barriers number of workload barrier objects
     * @param participants number of cores arriving at each barrier
     * @param grant_latency simulated cycles to deliver a grant
     */
    SyncArbiter(std::uint32_t num_locks, std::uint32_t num_barriers,
                std::uint32_t participants, Tick grant_latency,
                UncoreStats *stats);

    /** Handle LockAcq / LockRel / BarArrive; emits grants. */
    void handle(const BusMsg &msg, std::vector<SyncGrantMsg> &out);

    /** @return true when lock @p id is currently held (tests). */
    bool lockHeld(SyncId id) const;

    /** @return current holder of @p id or invalidCore. */
    CoreId lockHolder(SyncId id) const;

    /** @return number of cores queued on lock @p id. */
    std::size_t lockQueueDepth(SyncId id) const;

    /** @return arrivals so far at barrier @p id. */
    std::uint32_t barrierArrivals(SyncId id) const;

    void save(SnapshotWriter &writer) const override;
    void restore(SnapshotReader &reader) override;

  private:
    struct Waiter
    {
        CoreId core = invalidCore;
        std::uint32_t pad = 0; //!< named padding: copied raw
        Tick ts = 0;
    };

    struct LockState
    {
        bool held = false;
        CoreId holder = invalidCore;
        std::vector<Waiter> waitQueue; // FIFO
    };

    struct BarrierState
    {
        std::uint64_t arrivedMask = 0;
        std::uint32_t arrivedCount = 0;
        std::uint32_t pad = 0; //!< named padding: copied raw
        Tick maxArrivalTs = 0;
    };

    std::uint32_t participants_;
    Tick grantLatency_;
    UncoreStats *stats_;
    std::vector<LockState> locks_;
    std::vector<BarrierState> barriers_;
};

} // namespace slacksim

#endif // SLACKSIM_UNCORE_SYNC_ARBITER_HH
