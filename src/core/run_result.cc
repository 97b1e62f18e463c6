/**
 * @file
 * RunResult implementation.
 */

#include "core/run_result.hh"

#include <iomanip>
#include <ostream>

#include "stats/table.hh"

namespace slacksim {

double
RunResult::fractionIntervalsViolated() const
{
    if (intervals.empty())
        return 0.0;
    std::uint64_t violated = 0;
    for (const auto &iv : intervals)
        violated += iv.violated() ? 1 : 0;
    return static_cast<double>(violated) / intervals.size();
}

double
RunResult::meanFirstViolationDistance() const
{
    std::uint64_t violated = 0;
    double sum = 0.0;
    for (const auto &iv : intervals) {
        if (iv.violated()) {
            ++violated;
            sum += static_cast<double>(iv.firstViolationOffset);
        }
    }
    return violated ? sum / violated : 0.0;
}

void
RunResult::printSummary(std::ostream &os) const
{
    os << "run: workload=" << workloadName
       << " scheme=" << schemeName(scheme)
       << " host=" << (parallelHost ? "parallel" : "serial") << "\n";
    os << "  exec cycles      : " << execCycles << "\n";
    os << "  committed uops   : " << committedUops << "\n";
    os << "  CPI              : " << std::fixed << std::setprecision(3)
       << cpi() << "\n";
    os << "  wall seconds     : " << std::setprecision(3)
       << host.wallSeconds << "\n";
    os << "  bus violations   : " << violations.busViolations << " ("
       << std::setprecision(5) << busViolationRate() * 100.0
       << "%/cycle)\n";
    os << "  map violations   : " << violations.mapViolations << " ("
       << std::setprecision(5) << mapViolationRate() * 100.0
       << "%/cycle)\n";
    os << "  L1D hits/misses  : " << coreTotal.l1dHits << "/"
       << coreTotal.l1dMisses << "\n";
    os << "  L2 hits/misses   : " << uncore.l2Hits << "/"
       << uncore.l2Misses << "\n";
    os << "  bus requests     : " << uncore.busRequests << "\n";
    os << "  lock acq/queued  : " << uncore.lockAcquires << "/"
       << uncore.lockQueued << "\n";
    os << "  barrier episodes : " << uncore.barrierEpisodes << "\n";
    if (!intervals.empty()) {
        os << "  checkpoints      : " << host.checkpointsTaken
           << " (bytes=" << host.checkpointBytes
           << ", sec=" << std::setprecision(3) << host.checkpointSeconds
           << ")\n";
        os << "  intervals viol.  : " << std::setprecision(1)
           << fractionIntervalsViolated() * 100.0 << "%\n";
        os << "  mean 1st viol.   : " << std::setprecision(0)
           << meanFirstViolationDistance() << " cycles\n";
    }
    if (host.rollbacks) {
        os << "  rollbacks        : " << host.rollbacks
           << " (wasted=" << host.wastedCycles
           << ", replay=" << host.replayCycles << " cycles)\n";
    }
    if (scheme == SchemeKind::Adaptive) {
        os << "  final slack bound: " << finalSlackBound
           << " (adjustments=" << host.slackAdjustments << ")\n";
    }
    if (demotions || repromotions) {
        os << "  degradation      : level=" << degradationLevel
           << " demotions=" << demotions
           << " repromotions=" << repromotions << "\n";
    }
    if (!faultInjections.empty()) {
        os << "  faults injected  : " << faultInjections.size()
           << " (seed=" << faultSeed << ")\n";
    }
    os.flush();
}

void
RunResult::printPerCore(std::ostream &os) const
{
    Table table("per-core breakdown");
    table.setHeader({"core", "uops", "CPI", "l1d miss%", "l1i miss%",
                     "fetch stall", "sync stall", "sb full", "idle"});
    for (std::size_t c = 0; c < perCore.size(); ++c) {
        const CoreStats &s = perCore[c];
        const double cpi =
            s.committedInstrs
                ? static_cast<double>(execCycles) / s.committedInstrs
                : 0.0;
        const double d_acc =
            static_cast<double>(s.l1dHits + s.l1dMisses);
        const double i_acc =
            static_cast<double>(s.l1iHits + s.l1iMisses);
        table.cell(static_cast<std::uint64_t>(c))
            .cell(s.committedInstrs)
            .cell(cpi, 2)
            .cell(d_acc ? 100.0 * s.l1dMisses / d_acc : 0.0, 1)
            .cell(i_acc ? 100.0 * s.l1iMisses / i_acc : 0.0, 1)
            .cell(s.fetchStallCycles)
            .cell(s.syncStallCycles)
            .cell(s.sbFullCycles)
            .cell(s.idleCycles)
            .endRow();
    }
    table.print(os);
}

} // namespace slacksim
