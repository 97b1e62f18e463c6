/**
 * @file
 * Checkpointer implementation.
 */

#include "core/checkpointer.hh"

#include <chrono>
#include <cstring>

#include "fault/fault_plan.hh"
#include "obs/forensics.hh"
#include "obs/recorder.hh"
#include "util/checksum.hh"
#include "util/logging.hh"

namespace slacksim {

namespace {

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

std::uint64_t
nowNs()
{
    using clock = std::chrono::steady_clock;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            clock::now().time_since_epoch())
            .count());
}

} // namespace

Checkpointer::Checkpointer(SimSystem &sys, Pacer &pacer,
                           ManagerLogic &mgr, const EngineConfig &engine,
                           HostStats *host)
    : sys_(sys),
      pacer_(pacer),
      mgr_(mgr),
      engine_(engine),
      host_(host)
{
    SLACKSIM_ASSERT(host_ != nullptr, "Checkpointer needs host stats");
    nextCheckpointAt_ = 0; // the first checkpoint happens at t = 0
    if (engine_.checkpoint.extraCopyBytes)
        extraCopyArena_.resize(engine_.checkpoint.extraCopyBytes, 1);
    if (enabled() &&
        engine_.checkpoint.tech == CheckpointTech::ForkProcess) {
        fork_ = std::make_unique<ForkCheckpointer>(
            engine_.checkpoint.childTimeoutMs);
    }
}

Checkpointer::Event
Checkpointer::takeCheckpoint(Tick now)
{
    SLACKSIM_ASSERT(enabled(), "takeCheckpoint with checkpointing off");
    mgr_.closeInterval();

    // End a completed replay window *before* capturing the state so
    // the checkpoint itself records normal (non-replay) operation.
    if (pacer_.replayMode()) {
        host_->replayCycles += now - lastCheckpointAt_;
        pacer_.setReplayMode(false);
        sys_.uncore().setViolationCounting(true);
        obs::traceEnd(obs::TraceCategory::Checkpoint, "replay", now,
                      static_cast<std::int64_t>(now - lastCheckpointAt_));
        if (decisionLog_) {
            const std::uint64_t end = nowNs();
            obs::EpisodeRecord ep;
            ep.kind = obs::EpisodeKind::Replay;
            ep.cycle = now;
            ep.detail = now - lastCheckpointAt_;
            ep.hostNs = end > replayStartNs_ ? end - replayStartNs_ : 0;
            decisionLog_->recordEpisode(ep);
        }
    }

    // The checkpoint span opens after a replay window closed and
    // closes before the next one opens: both ride the manager's track.
    // Fork-technology note: a fork child resuming from rollback never
    // returns through this scope in the parent image; the child's slot
    // simply shows the scope as still open, and Recorder::end() closes
    // it at collection time.
    obs::Scope checkpoint(obs::Phase::Checkpoint);
    auto *plan = fault::FaultPlan::active();
    Event event = Event::Taken;
    if (fork_) {
        // The paper's mechanism: this very process image becomes the
        // checkpoint; execution continues in a child. After a future
        // rollback, control re-emerges right here in the parent.
        // Child faults are decided *before* fork so the injection
        // record lives in parent memory and survives the recovery.
        auto child_fault = ForkCheckpointer::ChildFault::None;
        if (plan) {
            switch (plan->fireChildFault(fork_->checkpointCount() + 1,
                                         now)) {
              case fault::FaultPlan::ChildFault::Kill:
                child_fault = ForkCheckpointer::ChildFault::Kill;
                break;
              case fault::FaultPlan::ChildFault::Exit:
                child_fault = ForkCheckpointer::ChildFault::Exit;
                break;
              case fault::FaultPlan::ChildFault::None:
                break;
            }
        }
        const auto outcome = fork_->checkpoint(child_fault);
        if (plan &&
            child_fault != ForkCheckpointer::ChildFault::None &&
            outcome == ForkCheckpointer::Outcome::RolledBack) {
            plan->markLastHandled("parent-recovery");
        }
        haveCheckpoint_ = true;
        host_->checkpointsTaken = fork_->checkpointCount();
        host_->checkpointSeconds = fork_->checkpointSeconds();
        host_->checkpointBytes = 0; // a whole address space
        host_->rollbacks = fork_->rollbackCount();
        host_->wastedCycles = fork_->wastedCycles();
        if (outcome == ForkCheckpointer::Outcome::RolledBack)
            event = Event::ResumedFromRollback;
    } else {
        const double t0 = nowSeconds();
        // Serialize into the spare generation (reusing its capacity)
        // and only then promote it: gens_[active_] stays a valid
        // rollback image even if save() throws halfway through, and
        // then stays around as the last-good fallback.
        const std::uint32_t spare = active_ ^ 1;
        SnapshotWriter writer(std::move(gens_[spare].buf));
        sys_.save(writer);
        pacer_.save(writer);
        mgr_.save(writer);
        gens_[spare].buf = writer.release();
        ++host_->checkpointsTaken;
        sealSnapshot(gens_[spare].buf);
        // Optionally emulate a heavier checkpoint technology (fork()
        // pays copy-on-write page faults across the whole virtual
        // space) by actually copying an arena of configured size. The
        // scratch destination is persistent so the emulated Tcpt term
        // measures copy bandwidth, not allocator churn.
        if (!extraCopyArena_.empty()) {
            extraCopyScratch_.resize(extraCopyArena_.size());
            std::memcpy(extraCopyScratch_.data(), extraCopyArena_.data(),
                        extraCopyScratch_.size());
            extraCopyArena_[0] = static_cast<std::uint8_t>(
                extraCopyScratch_[extraCopyScratch_.size() / 2] + 1);
        }
        gens_[spare].takenAt = now;
        gens_[spare].valid = true;
        active_ = spare;
        haveCheckpoint_ = true;
        host_->checkpointBytes = gens_[active_].buf.size();
        // Snapshot faults land *after* sealing: the damage is exactly
        // what the integrity trailer exists to catch.
        if (plan) {
            plan->fireSnapshotFault(host_->checkpointsTaken,
                                    gens_[active_].buf, now);
        }
        const double dt = nowSeconds() - t0;
        host_->checkpointSeconds += dt;
        if (decisionLog_) {
            obs::EpisodeRecord ep;
            ep.kind = obs::EpisodeKind::Checkpoint;
            ep.cycle = now;
            ep.detail = host_->checkpointBytes;
            ep.hostNs = static_cast<std::uint64_t>(dt * 1e9);
            decisionLog_->recordEpisode(ep);
        }
    }

    checkpoint.commit(obs::TraceCategory::Checkpoint, "checkpoint", now,
                      now,
                      static_cast<std::int64_t>(host_->checkpointBytes));
    checkpoint.close();

    lastCheckpointAt_ = now;
    nextCheckpointAt_ = now + engine_.checkpoint.interval;
    mgr_.beginInterval(now);

    if (event == Event::ResumedFromRollback) {
        // Forward progress: replay this interval cycle-by-cycle with
        // rollback disarmed and violation counting off.
        mgr_.clearRollbackRequest();
        mgr_.armRollback(false);
        pacer_.setReplayMode(true);
        sys_.uncore().setViolationCounting(false);
        replayStartNs_ = nowNs();
        if (decisionLog_) {
            // The in-memory rollback path records its episode in
            // rollback(); with fork() the rolled-back process is gone,
            // so the resumed parent marks the rollback here instead.
            obs::EpisodeRecord ep;
            ep.kind = obs::EpisodeKind::Rollback;
            ep.cycle = now;
            ep.detail = host_->wastedCycles;
            ep.hostNs = 0;
            decisionLog_->recordEpisode(ep);
        }
        obs::traceBegin(obs::TraceCategory::Checkpoint, "replay", now);
    } else {
        mgr_.armRollback(speculative() && !speculationSuppressed_);
        if (plan && speculative() && !speculationSuppressed_ &&
            plan->fireSpuriousRollback(host_->checkpointsTaken, now)) {
            mgr_.requestRollback();
            plan->markLastHandled("manager-rollback");
        }
    }
    return event;
}

void
Checkpointer::finalizeHostStats()
{
    // A run that stops inside a replay window (uop cap hit, workload
    // finished mid-interval) would otherwise leak the open "replay"
    // span into the Chrome trace; close it at the final global time
    // so rewound epochs always export balanced begin/end pairs.
    if (pacer_.replayMode()) {
        const Tick now = sys_.globalTime();
        host_->replayCycles +=
            now >= lastCheckpointAt_ ? now - lastCheckpointAt_ : 0;
        pacer_.setReplayMode(false);
        obs::traceEnd(obs::TraceCategory::Checkpoint, "replay", now,
                      static_cast<std::int64_t>(
                          now >= lastCheckpointAt_
                              ? now - lastCheckpointAt_
                              : 0));
    }
    if (fork_) {
        host_->checkpointsTaken = fork_->checkpointCount();
        host_->checkpointSeconds = fork_->checkpointSeconds();
        host_->rollbacks = fork_->rollbackCount();
        host_->wastedCycles = fork_->wastedCycles();
    }
}

Checkpointer::RollbackResult
Checkpointer::rollback(Tick current_global)
{
    SLACKSIM_ASSERT(haveCheckpoint_, "rollback without a checkpoint");
    obs::Scope rollback(obs::Phase::RollbackReplay);

    if (fork_) {
        fork_->addWastedCycles(current_global >= lastCheckpointAt_
                                   ? current_global - lastCheckpointAt_
                                   : 0);
        // Never returns: the checkpoint-holder process wakes up
        // inside its takeCheckpoint() call and reports
        // ResumedFromRollback to the engine.
        fork_->rollback();
    }

    obs::traceInstant(obs::TraceCategory::Checkpoint,
                      "violation-rollback", current_global,
                      static_cast<std::int64_t>(current_global -
                                                lastCheckpointAt_));
    const std::uint64_t rb_t0 = nowNs();

    mgr_.abortInterval();
    mgr_.clearRollbackRequest();
    mgr_.armRollback(false);

    // Try the active generation first, then the previous last-good
    // one. A generation that fails its integrity trailer is discarded
    // for good; verification happens *before* any restore() touches
    // component state, so a bad arena never trashes the world halfway
    // through.
    auto *plan = fault::FaultPlan::active();
    for (std::uint32_t attempt = 0; attempt < 2; ++attempt) {
        const std::uint32_t idx = active_ ^ attempt;
        Generation &g = gens_[idx];
        if (!g.valid)
            continue;
        const auto payload = verifySnapshot(g.buf);
        if (!payload) {
            g.valid = false;
            SLACKSIM_WARN("checkpoint from cycle ", g.takenAt,
                          " failed integrity verification (",
                          g.buf.size(), " bytes); discarding it");
            if (plan)
                plan->markLastHandled("restore-fallback");
            continue;
        }
        const bool fell_back = attempt != 0;
        if (fell_back) {
            active_ = idx;
            SLACKSIM_WARN("restoring last-good checkpoint from cycle ",
                          g.takenAt, " instead");
        }

        SnapshotReader reader(g.buf, *payload);
        sys_.restore(reader);
        pacer_.restore(reader);
        mgr_.restore(reader);
        SLACKSIM_ASSERT(reader.exhausted(),
                        "checkpoint not fully consumed on rollback");

        ++host_->rollbacks;
        host_->wastedCycles +=
            current_global >= g.takenAt ? current_global - g.takenAt
                                        : 0;
        lastCheckpointAt_ = g.takenAt;
        nextCheckpointAt_ = g.takenAt + engine_.checkpoint.interval;

        rollback.commit(obs::TraceCategory::Checkpoint, "rollback",
                        current_global, g.takenAt);
        if (decisionLog_) {
            obs::EpisodeRecord ep;
            ep.kind = obs::EpisodeKind::Rollback;
            ep.cycle = current_global;
            ep.detail = current_global >= g.takenAt
                            ? current_global - g.takenAt
                            : 0;
            ep.hostNs = nowNs() - rb_t0;
            decisionLog_->recordEpisode(ep);
        }

        // Forward progress: replay the interval cycle-by-cycle with
        // violation counting off; the next boundary re-checkpoints.
        pacer_.setReplayMode(true);
        sys_.uncore().setViolationCounting(false);
        replayStartNs_ = nowNs();
        mgr_.beginInterval(g.takenAt);
        // The replay window opens once the rollback span has closed.
        rollback.close();
        obs::traceBegin(obs::TraceCategory::Checkpoint, "replay",
                        g.takenAt);
        return {fell_back ? RollbackResult::Status::FellBack
                          : RollbackResult::Status::Restored,
                g.takenAt};
    }

    // No generation verified: the run demotes instead of crashing.
    // Speculation stays suppressed (the policy layer records the
    // transition); execution continues forward from where it is, and
    // the next boundary takes a fresh, verifiable checkpoint.
    speculationSuppressed_ = true;
    haveCheckpoint_ = false;
    SLACKSIM_WARN("no checkpoint generation passed verification; "
                  "suppressing speculation and continuing forward");
    if (plan)
        plan->markLastHandled("demoted", "restore-fallback");
    mgr_.beginInterval(current_global);
    return {RollbackResult::Status::Demoted, current_global};
}

} // namespace slacksim
