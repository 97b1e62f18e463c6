/**
 * @file
 * Aggregated results of one simulation run, plus the per-checkpoint-
 * interval measurements that feed the paper's Tables 3 and 4.
 */

#ifndef SLACKSIM_CORE_RUN_RESULT_HH
#define SLACKSIM_CORE_RUN_RESULT_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/config.hh"
#include "fault/fault_plan.hh"
#include "obs/forensics.hh"
#include "stats/stats.hh"
#include "util/histogram.hh"
#include "util/types.hh"

namespace slacksim {

/** Violation bookkeeping for one checkpoint interval. */
struct IntervalRecord
{
    Tick start = 0;                      //!< interval start (cycles)
    Tick firstViolationOffset = maxTick; //!< maxTick = no violation
    std::uint64_t violations = 0;        //!< violations in interval

    bool violated() const { return violations > 0; }
};

/** Everything measured during one run. */
struct RunResult
{
    std::string workloadName;
    SchemeKind scheme = SchemeKind::CycleByCycle;
    bool parallelHost = true;

    Tick execCycles = 0;   //!< target execution time (max local clock)
    Tick globalCycles = 0; //!< final global time
    std::uint64_t committedUops = 0;

    CoreStats coreTotal;
    std::vector<CoreStats> perCore;
    UncoreStats uncore;
    ViolationStats violations;
    HostStats host;
    Log2Histogram busQueueHistogram; //!< per-request bus wait (cycles)

    std::vector<IntervalRecord> intervals;
    Tick finalSlackBound = 0; //!< adaptive: bound at end of run

    /** Violation attribution, decision log and obs overhead collected
     *  by the run's ObsSession (see obs/forensics.hh and the
     *  slacksim.run_report.v5 document). */
    obs::ForensicsData forensics;

    /** Degradation-ladder outcome (see fault/recovery_policy.hh):
     *  the run's final level ("none" when the ladder does not apply)
     *  and how many demotions / re-promotions happened. */
    std::string degradationLevel = "none";
    std::uint64_t demotions = 0;
    std::uint64_t repromotions = 0;

    /** true: the run was cancelled cooperatively (CancelToken) and
     *  every aggregate below covers only the work done up to that
     *  point. The run report surfaces this as "status": "cancelled". */
    bool cancelled = false;

    /** Fault-injection attribution for chaos runs: every fault the
     *  installed FaultPlan fired, plus the plan's spec count and the
     *  seed that made the run repeatable (0 = no plan installed). */
    std::vector<fault::InjectionRecord> faultInjections;
    std::uint64_t faultSpecCount = 0;
    std::uint64_t faultSeed = 0;

    /** Committed micro-ops per cycle across the whole CMP. */
    double
    ipc() const
    {
        return execCycles
                   ? static_cast<double>(committedUops) / execCycles
                   : 0.0;
    }

    /** Cycles per committed micro-op (per core average). */
    double
    cpi() const
    {
        return committedUops
                   ? static_cast<double>(execCycles) * perCore.size() /
                         committedUops
                   : 0.0;
    }

    /** Total violations per simulated cycle. */
    double
    violationRate() const
    {
        return execCycles
                   ? static_cast<double>(violations.total()) / execCycles
                   : 0.0;
    }

    /** Bus violations per simulated cycle. */
    double
    busViolationRate() const
    {
        return execCycles ? static_cast<double>(
                                violations.busViolations) /
                                execCycles
                          : 0.0;
    }

    /** Map violations per simulated cycle. */
    double
    mapViolationRate() const
    {
        return execCycles ? static_cast<double>(
                                violations.mapViolations) /
                                execCycles
                          : 0.0;
    }

    /** Fraction of checkpoint intervals with >= 1 violation. */
    double fractionIntervalsViolated() const;

    /** Mean distance (cycles) from interval start to 1st violation,
     *  over intervals that violated. */
    double meanFirstViolationDistance() const;

    /** Human-readable multi-line summary. */
    void printSummary(std::ostream &os) const;

    /** Per-core breakdown table (CPI, stalls, cache behavior). */
    void printPerCore(std::ostream &os) const;
};

} // namespace slacksim

#endif // SLACKSIM_CORE_RUN_RESULT_HH
