/**
 * @file
 * Workload characterization implementation.
 */

#include "workload/trace_stats.hh"

#include <algorithm>
#include <ostream>
#include <unordered_map>

#include "util/logging.hh"

namespace slacksim {

WorkloadStats
analyzeWorkload(const Workload &workload)
{
    WorkloadStats stats;
    stats.threads = static_cast<std::uint32_t>(workload.threads.size());

    struct LineInfo
    {
        std::uint64_t touchers = 0; //!< bitmask of touching threads
        std::uint64_t writers = 0;  //!< bitmask of writing threads
    };
    std::unordered_map<Addr, LineInfo> lines;

    stats.minThreadUops = ~0ull;
    for (std::size_t t = 0; t < workload.threads.size(); ++t) {
        const std::uint64_t bit = 1ull << (t % 64);
        std::uint64_t uops = 0;
        for (const TraceInstr &instr : workload.threads[t].instrs) {
            switch (instr.op()) {
              case TraceOp::Compute:
                stats.computeUops += instr.count();
                uops += instr.count();
                break;
              case TraceOp::Load: {
                ++stats.loads;
                ++uops;
                LineInfo &info = lines[instr.addr() & ~Addr{63}];
                info.touchers |= bit;
                break;
              }
              case TraceOp::Store: {
                ++stats.stores;
                ++uops;
                LineInfo &info = lines[instr.addr() & ~Addr{63}];
                info.touchers |= bit;
                info.writers |= bit;
                break;
              }
              case TraceOp::Lock:
                ++stats.lockPairs;
                uops += 2; // lock + its unlock
                break;
              case TraceOp::Unlock:
                break; // counted with the lock
              case TraceOp::Barrier:
                ++stats.barrierArrivals;
                ++uops;
                break;
              case TraceOp::End:
                break;
            }
        }
        stats.minThreadUops = std::min(stats.minThreadUops, uops);
        stats.maxThreadUops = std::max(stats.maxThreadUops, uops);
    }
    if (stats.minThreadUops == ~0ull)
        stats.minThreadUops = 0;

    stats.totalLines = lines.size();
    for (const auto &[addr, info] : lines) {
        const int sharers = __builtin_popcountll(info.touchers);
        stats.maxSharers = std::max<std::uint64_t>(
            stats.maxSharers, static_cast<std::uint64_t>(sharers));
        if (sharers >= 2) {
            ++stats.sharedLines;
            if (info.writers != 0 &&
                (info.touchers & ~info.writers) != 0) {
                ++stats.rwSharedLines;
            } else if (__builtin_popcountll(info.writers) >= 2) {
                ++stats.rwSharedLines;
            }
        }
    }
    return stats;
}

void
printWorkloadStats(std::ostream &os, const std::string &name,
                   const WorkloadStats &stats)
{
    os << name << ":\n"
       << "  threads            : " << stats.threads << "\n"
       << "  micro-ops          : " << stats.totalUops() << " ("
       << stats.computeUops << " compute, " << stats.loads << " loads, "
       << stats.stores << " stores, " << stats.lockPairs
       << " lock pairs, " << stats.barrierArrivals << " barriers)\n"
       << "  memory fraction    : " << stats.memoryFraction() << "\n"
       << "  data footprint     : " << stats.totalLines
       << " lines (" << (stats.totalLines * 64) / 1024 << " KB)\n"
       << "  shared lines       : " << stats.sharedLines << " ("
       << stats.sharedFraction() * 100.0 << "%), r/w-shared "
       << stats.rwSharedLines << ", max sharers " << stats.maxSharers
       << "\n"
       << "  per-thread balance : max/min = " << stats.imbalance()
       << "\n";
    os.flush();
}

} // namespace slacksim
