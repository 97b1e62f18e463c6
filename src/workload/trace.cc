/**
 * @file
 * Trace storage and workload structural validation.
 */

#include "workload/trace.hh"

#include <algorithm>
#include <cstring>

namespace slacksim {

ChunkedTrace::ChunkedTrace(const ChunkedTrace &other)
{
    *this = other;
}

ChunkedTrace &
ChunkedTrace::operator=(const ChunkedTrace &other)
{
    if (this == &other)
        return *this;
    chunks_.clear();
    size_ = 0;
    for (std::size_t done = 0; done < other.size_;) {
        const std::span<TraceInstr> dst = extend(other.size_ - done);
        std::memcpy(dst.data(), &other[done], dst.size_bytes());
        done += dst.size();
    }
    return *this;
}

void
ChunkedTrace::addChunk()
{
    // Uninitialised: a page of the chunk is first touched when a
    // record is written to it.
    chunks_.push_back(
        std::make_unique_for_overwrite<TraceInstr[]>(chunkRecords));
}

std::span<TraceInstr>
ChunkedTrace::extend(std::size_t n)
{
    if ((size_ & chunkMask) == 0)
        addChunk();
    const std::size_t offset = size_ & chunkMask;
    const std::size_t count = std::min(n, chunkRecords - offset);
    size_ += count;
    return {chunks_.back().get() + offset, count};
}

namespace {

/** Sync ids travel in 16 bits through the core and the bus. */
constexpr std::uint64_t maxSyncObjects = std::uint64_t{1} << 16;

} // namespace

void
validateWorkload(const Workload &workload)
{
    SLACKSIM_ASSERT(!workload.threads.empty(),
                    "workload '", workload.name, "' has no threads");
    SLACKSIM_ASSERT(workload.numLocks <= maxSyncObjects &&
                        workload.numBarriers <= maxSyncObjects,
                    "workload '", workload.name, "' declares ",
                    workload.numLocks, " locks and ",
                    workload.numBarriers,
                    " barriers; sync ids are 16 bits");

    // Barrier arrival counts must match across all threads so no
    // thread can be left waiting forever. Thread 0's are the
    // reference.
    std::vector<std::uint64_t> reference;
    std::vector<std::uint64_t> barriers(workload.numBarriers);
    // Every thread must end holding no lock, so the next one starts
    // from an all-clear vector.
    std::vector<std::uint8_t> held(workload.numLocks);

    for (std::size_t t = 0; t < workload.threads.size(); ++t) {
        // The core wraps its fetch address modulo the footprint.
        SLACKSIM_ASSERT(workload.threads[t].codeFootprint > 0,
                        "thread ", t, " of '", workload.name,
                        "' has a zero code footprint");
        const ChunkedTrace &trace = workload.threads[t].instrs;
        SLACKSIM_ASSERT(!trace.empty() &&
                            trace.back().op() == TraceOp::End,
                        "thread ", t, " of '", workload.name,
                        "' does not end with End");

        std::fill(barriers.begin(), barriers.end(), 0);
        std::size_t num_held = 0;
        for (const TraceInstr &instr : trace) {
            switch (instr.op()) {
              case TraceOp::Compute:
                SLACKSIM_ASSERT(instr.count() > 0,
                                "empty Compute in thread ", t);
                break;
              case TraceOp::Load:
              case TraceOp::Store:
                break;
              case TraceOp::Lock: {
                const std::uint64_t id = instr.sync();
                SLACKSIM_ASSERT(id < workload.numLocks,
                                "lock id ", id, " out of range");
                SLACKSIM_ASSERT(!held[id], "thread ", t,
                                " re-acquires lock ", id);
                held[id] = 1;
                ++num_held;
                break;
              }
              case TraceOp::Unlock: {
                const std::uint64_t id = instr.sync();
                SLACKSIM_ASSERT(id < workload.numLocks && held[id],
                                "thread ", t, " releases unheld lock ",
                                id);
                held[id] = 0;
                --num_held;
                break;
              }
              case TraceOp::Barrier: {
                const std::uint64_t id = instr.sync();
                SLACKSIM_ASSERT(id < workload.numBarriers,
                                "barrier id ", id, " out of range");
                SLACKSIM_ASSERT(num_held == 0, "thread ", t,
                                " enters barrier holding a lock");
                ++barriers[id];
                break;
              }
              case TraceOp::End:
                SLACKSIM_ASSERT(&instr == &trace.back(),
                                "End not last in thread ", t);
                break;
              default:
                SLACKSIM_PANIC("unknown trace op ",
                               static_cast<unsigned>(instr.op()),
                               " in thread ", t, " of '",
                               workload.name, "'");
            }
        }
        SLACKSIM_ASSERT(num_held == 0,
                        "thread ", t, " ends holding a lock");

        if (t == 0) {
            reference = barriers;
        } else {
            SLACKSIM_ASSERT(barriers == reference,
                            "barrier arrival counts differ in thread ",
                            t, " of '", workload.name, "'");
        }
    }
}

} // namespace slacksim
