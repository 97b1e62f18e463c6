/**
 * @file
 * RecoveryPolicy implementation.
 */

#include "fault/recovery_policy.hh"

#include <algorithm>

#include "core/checkpointer.hh"
#include "core/manager_logic.hh"
#include "core/pacer.hh"
#include "obs/forensics.hh"
#include "obs/recorder.hh"
#include "util/logging.hh"

namespace slacksim {
namespace fault {

const char *
degradationLevelName(DegradationLevel level)
{
    switch (level) {
      case DegradationLevel::Speculative:
        return "speculative";
      case DegradationLevel::Adaptive:
        return "adaptive";
      case DegradationLevel::FixedSlack:
        return "fixed-slack";
    }
    return "unknown";
}

RecoveryPolicy::RecoveryPolicy(const EngineConfig &engine, Pacer &pacer,
                               ManagerLogic &mgr, Checkpointer &ckpt)
    : engine_(engine), pacer_(pacer), mgr_(mgr), ckpt_(ckpt)
{
    if (engine_.checkpoint.mode == CheckpointMode::Speculative) {
        top_ = DegradationLevel::Speculative;
        applicable_ = true;
    } else if (engine_.scheme == SchemeKind::Adaptive) {
        top_ = DegradationLevel::Adaptive;
        applicable_ = true;
    }
    level_ = top_;
    nextEpochCheck_ = engine_.adaptive.epochCycles;
}

const char *
RecoveryPolicy::levelName() const
{
    return applicable_ ? degradationLevelName(level_) : "none";
}

void
RecoveryPolicy::recordTransition(Tick cycle, DegradationLevel from,
                                 DegradationLevel to,
                                 const char *reason)
{
    SLACKSIM_WARN("degradation: ", degradationLevelName(from), " -> ",
                  degradationLevelName(to), " at cycle ", cycle, " (",
                  reason, ")");
    if (decisionLog_) {
        obs::TransitionRecord t;
        t.cycle = cycle;
        t.from = degradationLevelName(from);
        t.to = degradationLevelName(to);
        t.reason = reason;
        decisionLog_->recordTransition(t);
    }
    obs::traceInstant(obs::TraceCategory::Checkpoint, "degradation",
                      cycle, static_cast<std::int64_t>(to),
                      static_cast<std::int64_t>(from));
}

void
RecoveryPolicy::demote(Tick cycle, const char *reason)
{
    const DegradationLevel from = level_;
    if (from == DegradationLevel::Speculative) {
        // Stop rolling back: disarm speculation at the source and
        // drop any rollback already requested. The pacing scheme
        // (adaptive or otherwise) keeps running untouched.
        ckpt_.setSpeculationSuppressed(true);
        mgr_.armRollback(false);
        mgr_.clearRollbackRequest();
        level_ = DegradationLevel::Adaptive;
    } else if (from == DegradationLevel::Adaptive) {
        // Pin slack at 1: quantum-equivalent pacing (paper §3) that
        // cannot produce violations faster than it retires them.
        pacer_.setForcedBound(1);
        level_ = DegradationLevel::FixedSlack;
    } else {
        return; // already at the bottom rung
    }
    ++demotions_;
    demotedAt_ = cycle;
    rollbackTimes_.clear();
    pinnedEpochs_ = 0;
    recordTransition(cycle, from, level_, reason);
}

void
RecoveryPolicy::promote(Tick cycle)
{
    const DegradationLevel from = level_;
    if (from == DegradationLevel::FixedSlack) {
        pacer_.clearForcedBound();
        level_ = DegradationLevel::Adaptive;
    } else if (from == DegradationLevel::Adaptive &&
               top_ == DegradationLevel::Speculative) {
        // Speculation re-arms at the next checkpoint boundary.
        ckpt_.setSpeculationSuppressed(false);
        level_ = DegradationLevel::Speculative;
    } else {
        return;
    }
    ++repromotions_;
    demotedAt_ = cycle; // climbing further waits out another delay
    recordTransition(cycle, from, level_, "backoff-elapsed");
}

void
RecoveryPolicy::noteRollback(Tick global)
{
    if (!applicable_ || engine_.recovery.stormThreshold == 0 ||
        level_ != DegradationLevel::Speculative) {
        return;
    }
    const Tick window = engine_.recovery.stormWindow;
    while (!rollbackTimes_.empty() &&
           rollbackTimes_.front() + window < global) {
        rollbackTimes_.pop_front();
    }
    rollbackTimes_.push_back(global);
    if (rollbackTimes_.size() >= engine_.recovery.stormThreshold)
        demote(global, "rollback-storm");
}

void
RecoveryPolicy::observe(Tick global, const ViolationStats &violations)
{
    if (!applicable_)
        return;

    // Backoff-gated re-promotion: one rung per elapsed delay, with
    // the delay doubling per demotion so far (capped at 8x).
    if (engine_.recovery.repromoteAfter > 0 && level_ != top_ &&
        demotions_ > 0) {
        const std::uint64_t backoff = std::min<std::uint64_t>(
            std::uint64_t(1) << std::min<std::uint64_t>(
                demotions_ - 1, 3),
            8);
        const Tick delay = engine_.recovery.repromoteAfter * backoff;
        if (global >= demotedAt_ + delay)
            promote(global);
    }

    // Pinned-at-minimum detection: the adaptive controller has given
    // all the slack back and the violation rate is still over the
    // band — bounded pacing cannot win here, demote to fixed slack.
    if (level_ != DegradationLevel::Adaptive ||
        engine_.scheme != SchemeKind::Adaptive ||
        engine_.recovery.pinnedEpochLimit == 0) {
        return;
    }
    if (global < nextEpochCheck_ || global == 0)
        return;
    const auto &p = engine_.adaptive;
    nextEpochCheck_ = global + p.epochCycles;
    std::uint64_t counted = 0;
    if (p.adaptOnBus)
        counted += violations.busViolations;
    if (p.adaptOnMap)
        counted += violations.mapViolations;
    const double rate = static_cast<double>(counted) /
                        static_cast<double>(global);
    const bool pinned =
        pacer_.currentBound() <= p.minBound &&
        rate > p.targetViolationRate * (1.0 + p.violationBand);
    pinnedEpochs_ = pinned ? pinnedEpochs_ + 1 : 0;
    if (pinnedEpochs_ >= engine_.recovery.pinnedEpochLimit)
        demote(global, "pinned-at-min");
}

void
RecoveryPolicy::noteIntegrityDemotion(Tick global)
{
    // Always honored: a run with no valid rollback image must not
    // keep speculating, whatever the detection knobs say.
    if (level_ == DegradationLevel::Speculative)
        demote(global, "checkpoint-integrity");
}

} // namespace fault
} // namespace slacksim
