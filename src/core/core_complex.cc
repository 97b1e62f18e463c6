/**
 * @file
 * CoreComplex implementation.
 */

#include "core/core_complex.hh"

#include <algorithm>

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
    if (skip_budget == 0)
        skip_budget = 1;
    if (finished())
        return CycleOutcome::Progress;

    const Tick now = localTime_.load(std::memory_order_relaxed);
    const bool exact = accounting == StallAccounting::Exact;

    // A core already known to be inert, with nothing due before its
    // wake, would repeat its evaluated cycle exactly: re-enter it in
    // O(1) instead of evaluating the pipeline again. An exact skip
    // then counts from `now` itself, the first cycle it stands for.
    Tick wake = inert_ ? nextWake() : now;
    Tick skip_from = now;
    if (wake > now && exact) {
        ++inertReentries_;
    } else {
        // Reserve space for the worst-case message volume of one cycle
        // so the cycle never has to abort halfway through. An idle
        // re-entry keeps the check the evaluation it replaces made.
        if (!outQ_.hasFreeSpace(outboundHeadroom))
            return CycleOutcome::Backpressure;
        if (wake > now) {
            // Idle re-entry: count cycle `now` as evaluating it would.
            ++inertReentries_;
            stats_.add(inertDelta_);
        } else {
            ++evaluations_;
            const CoreStats before = stats_;
            inert_ = false;
            if (step(now) || finished()) {
                // Publish the new local time only after the cycle's
                // messages are in the queue: once the manager
                // observes localTime > T it may assume every event of
                // cycle T is visible.
                localTime_.store(now + 1, std::memory_order_release);
                return CycleOutcome::Progress;
            }
            inert_ = true;
            inertDelta_ = stats_.since(before);
            wake = nextWake();
        }
        skip_from = now + 1;
    }

    // The core is inert: identical behavior every cycle until the
    // earliest of (a) an already-scheduled internal completion,
    // (b) the InQ head becoming applicable, (c) the pacing limit.
    Tick target = wake;
    if (target == maxTick) {
        // Only a future delivery can wake the core. With pacing
        // headroom we bulk-skip the stall cycles up to the limit;
        // a free-running (unbounded) core instead freezes until
        // the manager delivers something.
        if (max_local >= maxTick - 1)
            return CycleOutcome::WaitInbound;
        target = max_local + 1;
    }
    Tick next = skip_from;
    if (target > skip_from) {
        next = std::min({target, max_local + 1,
                         now + static_cast<Tick>(skip_budget)});
        if (next <= now)
            return CycleOutcome::WaitInbound; // no headroom left
    }
    if (exact)
        stats_.addScaled(inertDelta_, next - skip_from);
    else
        stats_.idleCycles += next - skip_from;
    localTime_.store(next, std::memory_order_release);
    return CycleOutcome::Progress;
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

Tick
CoreComplex::nextWake() const
{
    Tick wake = core_.earliestSelfWake();
    if (const BusMsg *head = inQ_.front())
        wake = std::min(wake, head->ts);
    return wake;
}

Tick
CoreComplex::wakeHint() const
{
    const Tick now = localTime();
    return inert_ ? std::max(now, nextWake()) : now;
}

void
CoreComplex::save(SnapshotWriter &writer) const
{
    writer.putMarker(0xcc01);
    writer.put(stats_);
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
}

} // namespace slacksim
