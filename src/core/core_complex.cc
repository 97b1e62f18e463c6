/**
 * @file
 * CoreComplex implementation.
 */

#include "core/core_complex.hh"

#include "util/logging.hh"

namespace slacksim {

CoreComplex::CoreComplex(const SimConfig &config, CoreId id,
                         const TraceProgram *trace, Addr code_base)
    : id_(id),
      l1d_(config.target.l1d, id, &stats_),
      l1i_(config.target.l1i, id, &stats_),
      core_(config.target.core, id, trace, &l1d_, &l1i_, &stats_,
            code_base),
      outQ_(config.engine.queueCapacity),
      inQ_(config.engine.queueCapacity)
{
    scratch_.reserve(32);
}

CoreComplex::CycleOutcome
CoreComplex::cycle(Tick max_local, std::uint32_t skip_budget,
                   StallAccounting accounting)
{
    if (finished())
        return CycleOutcome::Progress;

    const Tick now = localTime_.load(std::memory_order_relaxed);

    // A core already known to be inert, with nothing due before its
    // wake, would repeat its evaluated cycle exactly: re-enter it in
    // O(1) instead of evaluating the pipeline again.
    if (inert_) {
        const Tick wake = nextWake();
        if (wake > now)
            return reenterInert(wake, max_local, skip_budget, accounting);
    }

    // Reserve space for the worst-case message volume of one cycle
    // so the cycle never has to abort halfway through.
    if (!outQ_.hasFreeSpace(outboundHeadroom))
        return CycleOutcome::Backpressure;
    foldInert(); // the evaluation replaces inertDelta_
    ++evaluations_;
    const CoreStats before = stats_;
    inert_ = false;
    if (step(now) || finished()) {
        // Publish the new local time only after the cycle's messages
        // are in the queue: once the manager observes localTime > T
        // it may assume every event of cycle T is visible.
        localTime_.store(now + 1, std::memory_order_release);
        return CycleOutcome::Progress;
    }
    inert_ = true;
    inertDelta_ = stats_.since(before);
    return skipInert(now, now + 1, nextWake(), max_local, skip_budget,
                     accounting);
}

bool
CoreComplex::step(Tick now)
{
    // Apply inbound messages that have become visible at this local
    // time. The head may carry a future timestamp; it then waits
    // (later entries wait behind it — a slack-induced distortion the
    // simulation tolerates by design).
    std::uint32_t applied = 0;
    while (applied < inboundPerCycle) {
        const BusMsg *head = inQ_.front();
        if (!head || head->ts > now)
            break;
        core_.handleInbound(*head, now, scratch_);
        inQ_.popFront();
        ++applied;
    }

    const bool progressed = core_.cycle(now, scratch_) || applied > 0;

    if (!scratch_.empty()) {
        for (BusMsg &msg : scratch_) {
            msg.src = id_;
            msg.ts = now;
            msg.seq = nextSeq_++;
        }
        // One batched publication for the whole cycle's messages.
        const std::size_t pushed =
            outQ_.pushN(scratch_.data(), scratch_.size());
        SLACKSIM_ASSERT(pushed == scratch_.size(),
                        "OutQ overflow despite headroom check");
        scratch_.clear();
    }
    return progressed;
}

void
CoreComplex::save(SnapshotWriter &writer) const
{
    writer.putMarker(0xcc01);
    writer.put(stats());
    l1d_.save(writer);
    l1i_.save(writer);
    core_.save(writer);
    writer.putVector(outQ_.quiescedContents());
    writer.putVector(inQ_.quiescedContents());
    writer.put(nextSeq_);
    writer.put(localTime_.load(std::memory_order_acquire));
}

void
CoreComplex::restore(SnapshotReader &reader)
{
    reader.checkMarker(0xcc01);
    stats_ = reader.get<CoreStats>();
    l1d_.restore(reader);
    l1i_.restore(reader);
    core_.restore(reader);
    outQ_.quiescedAssign(reader.getVector<BusMsg>());
    inQ_.quiescedAssign(reader.getVector<BusMsg>());
    nextSeq_ = reader.get<SeqNum>();
    localTime_.store(reader.get<Tick>(), std::memory_order_release);
    scratch_.clear();
    inert_ = false;
    pendingInert_ = 0;
}

} // namespace slacksim
