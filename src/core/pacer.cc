/**
 * @file
 * Pacer implementation.
 */

#include "core/pacer.hh"

#include <algorithm>

#include "obs/forensics.hh"
#include "obs/recorder.hh"
#include "util/logging.hh"

namespace slacksim {

Pacer::Pacer(const EngineConfig &engine, std::uint32_t num_cores,
             HostStats *host)
    : engine_(engine),
      numCores_(num_cores),
      host_(host),
      p2pRng_(engine.p2pSeed)
{
    SLACKSIM_ASSERT(host_ != nullptr, "Pacer needs host stats");
    SLACKSIM_ASSERT(numCores_ >= 1, "Pacer needs at least one core");
    switch (engine_.scheme) {
      case SchemeKind::Bounded:
        bound_ = engine_.slackBound;
        break;
      case SchemeKind::Adaptive:
        bound_ = engine_.adaptive.initialBound;
        nextEpoch_ = engine_.adaptive.epochCycles;
        break;
      case SchemeKind::LaxP2P:
        bound_ = engine_.slackBound;
        peers_.resize(numCores_);
        shufflePeers(0);
        break;
      default:
        break;
    }
}

void
Pacer::shufflePeers(Tick global_time)
{
    // Pair every core with a uniformly random *other* core, like
    // Graphite's Lax-P2P picks a random partner per synchronization.
    for (CoreId c = 0; c < numCores_; ++c) {
        if (numCores_ == 1) {
            peers_[c] = c;
            continue;
        }
        CoreId peer =
            static_cast<CoreId>(p2pRng_.below(numCores_ - 1));
        if (peer >= c)
            ++peer;
        peers_[c] = peer;
    }
    nextShuffleAt_ = global_time + engine_.p2pShufflePeriod;
}

Tick
Pacer::maxLocalFor(Tick global_time) const
{
    if (replayMode_)
        return global_time; // forced cycle-by-cycle during replay
    // A degradation clamp never loosens a scheme, only tightens it
    // (quantum/cc already pace at least this strictly).
    if (forcedBound_) {
        return std::min(nativeMaxLocalFor(global_time),
                        global_time + forcedBound_);
    }
    return nativeMaxLocalFor(global_time);
}

Tick
Pacer::nativeMaxLocalFor(Tick global_time) const
{
    switch (engine_.scheme) {
      case SchemeKind::CycleByCycle:
        return global_time;
      case SchemeKind::Quantum: {
        // Barrier at every multiple of the quantum: a core may run up
        // to (but not past) the next boundary.
        const Tick q = engine_.quantum;
        return (global_time / q + 1) * q - 1;
      }
      case SchemeKind::Bounded:
      case SchemeKind::Adaptive:
        return global_time + bound_;
      case SchemeKind::LaxP2P:
        // Per-core limits come from maxLocalForCore(); the global
        // form is only used as a conservative fallback.
        return global_time + bound_;
      case SchemeKind::Unbounded:
        return maxTick - 1;
    }
    return global_time;
}

Tick
Pacer::maxLocalForCore(CoreId core, Tick global_time,
                       const std::vector<Tick> &locals)
{
    if (engine_.scheme != SchemeKind::LaxP2P || replayMode_ ||
        forcedBound_) {
        return maxLocalFor(global_time);
    }
    SLACKSIM_ASSERT(core < peers_.size() &&
                        locals.size() == peers_.size(),
                    "lax-p2p pacing geometry mismatch");
    if (global_time >= nextShuffleAt_)
        shufflePeers(global_time);
    // A core may run ahead of its randomly chosen peer by at most the
    // slack bound. A finished peer's clock stops, possibly below the
    // global minimum, and pacing against it would freeze the core
    // until a reshuffle that global time, stuck with it, never
    // reaches. Clamped to the global minimum, the slowest core's
    // limit is always >= its own clock: deadlock-free.
    return std::max(locals[peers_[core]], global_time) + bound_;
}

void
Pacer::observe(Tick global_time, const ViolationStats &violations)
{
    if (engine_.scheme != SchemeKind::Adaptive || replayMode_ ||
        forcedBound_) {
        return;
    }
    if (global_time < nextEpoch_ || global_time == 0)
        return;
    // Past the early-outs: this iteration actually evaluates an
    // epoch, which is the part worth attributing.
    obs::Scope epoch(obs::Phase::PacerEpoch);
    const auto &p = engine_.adaptive;
    nextEpoch_ = global_time + p.epochCycles;

    std::uint64_t counted = 0;
    if (p.adaptOnBus)
        counted += violations.busViolations;
    if (p.adaptOnMap)
        counted += violations.mapViolations;
    double rate;
    if (p.windowedRate) {
        const std::uint64_t dv =
            counted >= lastCounted_ ? counted - lastCounted_ : 0;
        const Tick dt =
            global_time > lastGlobal_ ? global_time - lastGlobal_ : 1;
        rate = static_cast<double>(dv) / static_cast<double>(dt);
        lastCounted_ = counted;
        lastGlobal_ = global_time;
    } else {
        // The paper's definition: total violations / total cycles.
        rate = static_cast<double>(counted) /
               static_cast<double>(global_time);
    }

    // Dead zone: leave the bound alone while the running rate stays
    // within the violation band around the target.
    const Tick old_bound = bound_;
    obs::BandVerdict verdict = obs::BandVerdict::Hold;
    if (rate > p.targetViolationRate * (1.0 + p.violationBand)) {
        const Tick step = std::max<Tick>(1, bound_ / 4);
        bound_ = bound_ > p.minBound + step ? bound_ - step : p.minBound;
        verdict = obs::BandVerdict::Shrink;
    } else if (rate < p.targetViolationRate * (1.0 - p.violationBand)) {
        const Tick step = std::max<Tick>(1, bound_ / 4);
        bound_ = std::min(p.maxBound, bound_ + step);
        verdict = obs::BandVerdict::Grow;
    }
    if (decisionLog_) {
        obs::DecisionRecord d;
        d.cycle = global_time;
        d.rate = rate;
        d.verdict = verdict;
        d.oldBound = old_bound;
        d.newBound = bound_;
        decisionLog_->recordDecision(d);
    }
    if (bound_ != old_bound) {
        ++host_->slackAdjustments;
        obs::traceInstant(obs::TraceCategory::Adaptive, "adaptive-bound",
                          global_time, static_cast<std::int64_t>(bound_),
                          static_cast<std::int64_t>(old_bound));
        obs::traceCounter(obs::TraceCategory::Adaptive, "slack-bound",
                          global_time, static_cast<std::int64_t>(bound_));
    }
}

void
Pacer::save(SnapshotWriter &writer) const
{
    writer.putMarker(0x9ace);
    writer.put(bound_);
    writer.put(nextEpoch_);
    writer.put(replayMode_);
    writer.putVector(peers_);
    writer.put(nextShuffleAt_);
    writer.put(p2pRng_.rawState());
    writer.put(lastCounted_);
    writer.put(lastGlobal_);
}

void
Pacer::restore(SnapshotReader &reader)
{
    reader.checkMarker(0x9ace);
    const Tick before = bound_;
    bound_ = reader.get<Tick>();
    nextEpoch_ = reader.get<Tick>();
    replayMode_ = reader.get<bool>();
    peers_ = reader.getVector<CoreId>();
    nextShuffleAt_ = reader.get<Tick>();
    p2pRng_.setRawState(
        reader.get<std::array<std::uint64_t, 4>>());
    lastCounted_ = reader.get<std::uint64_t>();
    lastGlobal_ = reader.get<Tick>();
    // A rollback rewinds the bound without an observe() decision; log
    // it so the old->new chain in the report stays contiguous. The
    // cycle recorded is the next evaluation time restored with the
    // snapshot — the closest notion of "when" the rewound bound takes
    // effect.
    if (decisionLog_ && bound_ != before) {
        obs::DecisionRecord d;
        d.cycle = nextEpoch_;
        d.rate = 0.0;
        d.verdict = obs::BandVerdict::Restored;
        d.oldBound = before;
        d.newBound = bound_;
        decisionLog_->recordDecision(d);
    }
}

} // namespace slacksim
