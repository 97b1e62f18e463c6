/**
 * @file
 * Plain-old-data statistics records kept by the simulated components.
 *
 * Everything in here is part of the *simulated* state: on a rollback
 * the statistics of the wasted interval are discarded along with the
 * rest of the world, so these structs are trivially copyable and are
 * serialized into checkpoints. Host-side measurements (wall-clock
 * time, rollback counts, checkpoint costs) live in HostStats, which is
 * deliberately *not* snapshotable.
 */

#ifndef SLACKSIM_STATS_STATS_HH
#define SLACKSIM_STATS_STATS_HH

#include <cstdint>

#include "util/types.hh"

namespace slacksim {

/** Per-core pipeline and L1 statistics. */
struct CoreStats
{
    std::uint64_t committedInstrs = 0;  //!< committed micro-ops
    std::uint64_t committedLoads = 0;
    std::uint64_t committedStores = 0;
    std::uint64_t committedSyncOps = 0;
    std::uint64_t fetchStallCycles = 0; //!< front end blocked on L1I
    std::uint64_t robFullCycles = 0;
    std::uint64_t sbFullCycles = 0;     //!< commit blocked on store buffer
    std::uint64_t syncStallCycles = 0;  //!< head-of-ROB sync wait
    /** Cycles a slack-scheme idle skip jumped over: the skip steps
     *  one inert cycle and counts the rest here, not in the stall
     *  counters above. Exact (sorted-service) skips never add here. */
    std::uint64_t idleCycles = 0;

    std::uint64_t l1dHits = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l1dMshrMerges = 0;    //!< secondary misses merged
    std::uint64_t l1dMshrFullEvents = 0;
    std::uint64_t l1dWritebacks = 0;
    std::uint64_t l1dUpgrades = 0;      //!< S->M upgrade requests
    std::uint64_t l1iHits = 0;
    std::uint64_t l1iMisses = 0;
    std::uint64_t snoopInvalidations = 0;
    std::uint64_t snoopDowngrades = 0;

    /** Fold another record into this one. */
    void
    add(const CoreStats &o)
    {
        zip(o, [](std::uint64_t &a, std::uint64_t b) { a += b; });
    }

    bool operator==(const CoreStats &) const = default;

  private:
    /** Apply @p fn to each counter paired with @p o's counterpart. */
    template <typename Fn>
    void
    zip(const CoreStats &o, Fn &&fn)
    {
        fn(committedInstrs, o.committedInstrs);
        fn(committedLoads, o.committedLoads);
        fn(committedStores, o.committedStores);
        fn(committedSyncOps, o.committedSyncOps);
        fn(fetchStallCycles, o.fetchStallCycles);
        fn(robFullCycles, o.robFullCycles);
        fn(sbFullCycles, o.sbFullCycles);
        fn(syncStallCycles, o.syncStallCycles);
        fn(idleCycles, o.idleCycles);
        fn(l1dHits, o.l1dHits);
        fn(l1dMisses, o.l1dMisses);
        fn(l1dMshrMerges, o.l1dMshrMerges);
        fn(l1dMshrFullEvents, o.l1dMshrFullEvents);
        fn(l1dWritebacks, o.l1dWritebacks);
        fn(l1dUpgrades, o.l1dUpgrades);
        fn(l1iHits, o.l1iHits);
        fn(l1iMisses, o.l1iMisses);
        fn(snoopInvalidations, o.snoopInvalidations);
        fn(snoopDowngrades, o.snoopDowngrades);
    }
};

static_assert(sizeof(CoreStats) == 19 * sizeof(std::uint64_t),
              "CoreStats::zip must visit every counter");

/**
 * The counters a cycle that changes no pipeline state (an inert
 * cycle, OooCore::cycle) can still move: the four stall counters, the
 * instruction fetch that hits while the ROB is full, and a load or
 * store turned away by a full MSHR file (a blocked store also counts
 * its miss or upgrade). Every other counter moves only with progress:
 * a commit, a completion, an emitted request or an inbound message.
 */
inline constexpr std::uint64_t CoreStats::*inertCounters[] = {
    &CoreStats::fetchStallCycles, &CoreStats::robFullCycles,
    &CoreStats::sbFullCycles,     &CoreStats::syncStallCycles,
    &CoreStats::l1iHits,          &CoreStats::l1dMshrFullEvents,
    &CoreStats::l1dMisses,        &CoreStats::l1dUpgrades,
};

/** Manager-side bus / L2 / sync statistics. */
struct UncoreStats
{
    std::uint64_t busRequests = 0;      //!< request-bus grants
    std::uint64_t busQueueingCycles = 0; //!< total wait for the bus
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t l2Writebacks = 0;     //!< dirty L2 victims to memory
    std::uint64_t backInvalidations = 0; //!< L2 victim inclusive kills
    std::uint64_t cacheToCacheTransfers = 0;
    std::uint64_t invalidationsSent = 0;
    std::uint64_t downgradesSent = 0;
    std::uint64_t lockAcquires = 0;
    std::uint64_t lockQueued = 0;       //!< acquires that had to wait
    std::uint64_t barrierEpisodes = 0;  //!< completed whole barriers

    void
    add(const UncoreStats &o)
    {
        busRequests += o.busRequests;
        busQueueingCycles += o.busQueueingCycles;
        l2Hits += o.l2Hits;
        l2Misses += o.l2Misses;
        l2Writebacks += o.l2Writebacks;
        backInvalidations += o.backInvalidations;
        cacheToCacheTransfers += o.cacheToCacheTransfers;
        invalidationsSent += o.invalidationsSent;
        downgradesSent += o.downgradesSent;
        lockAcquires += o.lockAcquires;
        lockQueued += o.lockQueued;
        barrierEpisodes += o.barrierEpisodes;
    }

    bool operator==(const UncoreStats &) const = default;
};

/** Simulation-violation counters (the paper's accuracy proxy). */
struct ViolationStats
{
    std::uint64_t busViolations = 0;    //!< bus serviced out of ts order
    std::uint64_t mapViolations = 0;    //!< cache-map transition o-o-o

    std::uint64_t total() const { return busViolations + mapViolations; }

    void
    add(const ViolationStats &o)
    {
        busViolations += o.busViolations;
        mapViolations += o.mapViolations;
    }

    bool operator==(const ViolationStats &) const = default;
};

/** Host-side measurements; never rolled back. */
struct HostStats
{
    double wallSeconds = 0.0;           //!< engine run wall-clock time
    double checkpointSeconds = 0.0;     //!< critical-path snapshot time
    /** Always 0: checkpoints seal on the manager, so all their time
     *  is checkpointSeconds. Kept for the run report's v5 key set
     *  (checkpoint_async_seconds) and for perfbench_driver. */
    double checkpointAsyncSeconds = 0.0;
    std::uint64_t checkpointsTaken = 0;
    std::uint64_t checkpointBytes = 0;  //!< size of the last snapshot
    std::uint64_t rollbacks = 0;
    std::uint64_t wastedCycles = 0;     //!< simulated cycles re-done
    std::uint64_t replayCycles = 0;     //!< cycles replayed in CC mode
    std::uint64_t slackAdjustments = 0; //!< adaptive bound changes
    std::uint64_t managerWakeups = 0;
    std::uint64_t coreParkEvents = 0;
    /** The engine's own work: manager loop iterations, full core
     *  pipeline evaluations, and O(1) re-entries of cores already
     *  known to be inert (CoreComplex::cycle). */
    std::uint64_t managerRounds = 0;
    std::uint64_t coreEvaluations = 0;
    std::uint64_t inertReentries = 0;
    /** Host threads the run actually used (manager + workers); 1
     *  for the serial engine and parallel inline mode. */
    std::uint32_t hostThreadsUsed = 1;
    Tick maxObservedSlack = 0;          //!< max clock spread seen
};

} // namespace slacksim

#endif // SLACKSIM_STATS_STATS_HH
