/**
 * @file
 * SerialEngine implementation.
 */

#include "core/serial_engine.hh"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "fault/fault_plan.hh"
#include "obs/obs_session.hh"
#include "obs/recorder.hh"
#include "util/cancel.hh"
#include "util/logging.hh"

namespace slacksim {

SerialEngine::SerialEngine(SimSystem &sys)
    : sys_(sys),
      engine_(sys.config().engine),
      pacer_(engine_, sys.numCores(), &host_),
      mgr_(sys, engine_, &host_),
      ckpt_(sys, pacer_, mgr_, engine_, &host_),
      maxLocal_(sys.numCores(), 0)
{
}

void
SerialEngine::updatePacing(bool monotone)
{
    const Tick global = sys_.globalTime();
    localsScratch_.resize(sys_.numCores());
    for (CoreId c = 0; c < sys_.numCores(); ++c)
        localsScratch_[c] = sys_.core(c).localTime();
    for (CoreId c = 0; c < sys_.numCores(); ++c) {
        Tick target = pacer_.maxLocalForCore(c, global, localsScratch_);
        if (ckpt_.enabled())
            target = std::min(target, ckpt_.nextCheckpointAt() - 1);
        maxLocal_[c] =
            monotone ? std::max(maxLocal_[c], target) : target;
    }
}

bool
SerialEngine::quiescedAtBoundary() const
{
    const Tick boundary = ckpt_.nextCheckpointAt();
    bool any_unfinished = false;
    for (CoreId c = 0; c < sys_.numCores(); ++c) {
        const auto &core = sys_.core(c);
        if (core.finished())
            continue;
        any_unfinished = true;
        if (core.localTime() != boundary)
            return false;
    }
    return any_unfinished;
}

RunResult
SerialEngine::run()
{
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();

    setLogThreadContext("manager");
    obs::ObsSession session(engine_.obs, sys_, pacer_, mgr_, ckpt_,
                            host_);
    session.begin("manager");
    recovery_.setDecisionLog(session.decisionLog());
    if (obs::StallWatchdog *wd = session.watchdog()) {
        // Single host thread: every simulated core is informational
        // only (the engine's own livelock panics cover real stalls,
        // and a paused core clock is normal round-robin scheduling).
        // The dump prints each core's atomic clock; no progress probe,
        // since the watchdog thread must read nothing else the
        // manager writes.
        for (CoreId c = 0; c < sys_.numCores(); ++c) {
            wd->addWorker("core " + std::to_string(c),
                          &sys_.core(c).localClock(), nullptr,
                          /*stall_eligible=*/false);
        }
        wd->start();
    }

    mgr_.setSorted(pacer_.sortedService());
    if (ckpt_.enabled()) {
        if (ckpt_.takeCheckpoint(0) ==
            Checkpointer::Event::ResumedFromRollback) {
            mgr_.setSorted(true);
        }
    }

    std::uint64_t idle_iters = 0;
    std::uint64_t last_committed = 0;
    Tick committed_stale_since = 0;
    bool warmup_pending = engine_.warmupUops > 0;
    bool cancelled = false;
    for (;;) {
        // Single host thread, never parked: polling once per round is
        // enough for prompt cooperative cancellation.
        if (engine_.cancel && engine_.cancel->cancelled()) {
            cancelled = true;
            break;
        }
        updatePacing(true);

        bool progress = false;
        // Rotate the per-round service order: a fixed order would
        // batch every core's requests at the same timestamps each
        // round, a resonance a real multi-threaded host does not have.
        const std::uint64_t round = ++host_.managerRounds;
        for (CoreId i = 0; i < sys_.numCores(); ++i) {
            const CoreId c = static_cast<CoreId>(
                (i + round) % sys_.numCores());
            CoreComplex &cc = sys_.core(c);
            if (cc.finished()) {
                mgr_.pumpCore(c);
                continue;
            }
            if (auto *plan = fault::FaultPlan::active()) {
                if (const std::uint64_t ms =
                        plan->fireWorkerStall(c, cc.localTime())) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(ms));
                    plan->markLastHandled("serial-engine");
                }
            }
            Tick advanced = 0;
            const Tick local0 = cc.localTime();
            {
            obs::Scope simulate(obs::Phase::Simulate);
            while (cc.localTime() <= maxLocal_[c] &&
                   advanced < engine_.burstCycles) {
                const Tick before = cc.localTime();
                const auto outcome = cc.cycle(
                    maxLocal_[c], engine_.burstCycles -
                                      static_cast<std::uint32_t>(
                                          advanced));
                if (outcome != CoreComplex::CycleOutcome::Progress)
                    break; // backpressure / inbound wait: pump below
                advanced += cc.localTime() - before;
                if (cc.finished())
                    break;
            }
            if (advanced > 0) {
                // All cores share the one host thread's track; the
                // core id rides in the span's arg.
                simulate.commit(obs::TraceCategory::Core, "core-run",
                                local0, cc.localTime(),
                                static_cast<std::int64_t>(c));
            }
            }
            progress |= advanced > 0;
            // Arrival order in the serial engine is the deterministic
            // round-robin order of these pumps.
            {
                obs::Scope push(obs::Phase::QueuePush);
                mgr_.pumpCore(c);
                mgr_.flushOverflow();
            }
        }

        const Tick global = sys_.globalTime();
        if (auto *plan = fault::FaultPlan::active()) {
            // Serve-site faults first: job-crash never returns, and a
            // job-hang wedge should not be masked by a backpressure
            // burst scheduled for the same window.
            plan->fireServeFault(global);
            if (const std::uint64_t rounds =
                    plan->fireBackpressure(global)) {
                backpressureRounds_ += rounds;
            }
        }
        if (backpressureRounds_ > 0) {
            // Injected backpressure burst: the manager withholds
            // service, so cores stall against unanswered requests
            // until the burst drains. Bounded well under the livelock
            // panic threshold by FaultPlan grammar limits.
            if (--backpressureRounds_ == 0) {
                if (auto *plan = fault::FaultPlan::active())
                    plan->markLastHandled("manager-resumed");
            }
        } else {
            obs::Scope drain(obs::Phase::Drain);
            const std::size_t serviced = mgr_.serviceSorted(global);
            mgr_.flushOverflow();
            if (serviced > 0) {
                drain.commit(obs::TraceCategory::Manager,
                             "manager-service", global, global,
                             static_cast<std::int64_t>(serviced));
            }
        }
        pacer_.observe(global, sys_.violations());
        recovery_.observe(global, sys_.violations());
        session.maybeSample(global);
        {
            Tick max_unfinished = global;
            for (CoreId c = 0; c < sys_.numCores(); ++c) {
                if (!sys_.core(c).finished()) {
                    max_unfinished = std::max(
                        max_unfinished, sys_.core(c).localTime());
                }
            }
            host_.maxObservedSlack = std::max(host_.maxObservedSlack,
                                              max_unfinished - global);
        }

        if (ckpt_.enabled()) {
            if (mgr_.rollbackRequested()) {
                const auto rb = ckpt_.rollback(global);
                if (rb.status ==
                    Checkpointer::RollbackResult::Status::Demoted) {
                    // No valid checkpoint generation: keep running
                    // forward without speculation instead of dying.
                    recovery_.noteIntegrityDemotion(global);
                    updatePacing(true);
                    session.collectTrace();
                    continue;
                }
                recovery_.noteRollback(global);
                mgr_.setSorted(true); // replay is cycle-by-cycle
                updatePacing(false);  // pacing reset after restore
                session.forceSample(rb.resumedAt);
                session.collectTrace();
                continue;
            }
            if (quiescedAtBoundary()) {
                const bool was_replay = pacer_.replayMode();
                const Tick boundary = ckpt_.nextCheckpointAt();
                const auto event = ckpt_.takeCheckpoint(boundary);
                if (event ==
                    Checkpointer::Event::ResumedFromRollback) {
                    // Fork-technology rollback: this process just
                    // woke up as the checkpoint. Replay follows.
                    recovery_.noteRollback(boundary);
                    mgr_.setSorted(true);
                    updatePacing(false);
                    session.forceSample(sys_.globalTime());
                    session.collectTrace();
                    continue;
                }
                if (was_replay && !pacer_.sortedService()) {
                    // Leaving sorted replay: release anything the
                    // sorted heap still holds, then switch to
                    // arrival-order service.
                    mgr_.serviceSorted(maxTick);
                    mgr_.setSorted(false);
                    mgr_.flushOverflow();
                }
                updatePacing(true);
                session.forceSample(boundary);
                session.collectTrace();
                continue;
            }
        }

        if (warmup_pending &&
            sys_.totalCommittedUops() >= engine_.warmupUops) {
            // Paper methodology: discard everything measured during
            // initialization; the budget counts post-warmup work.
            sys_.resetSimStats();
            last_committed = 0;
            warmup_pending = false;
        }
        if (engine_.maxCommittedUops && !warmup_pending &&
            sys_.totalCommittedUops() >= engine_.maxCommittedUops) {
            break;
        }
        if (sys_.allFinished()) {
            mgr_.pumpAll();
            mgr_.serviceSorted(maxTick);
            mgr_.flushOverflow();
            break;
        }
        if (progress) {
            idle_iters = 0;
        } else if (++idle_iters > 100000) {
            SLACKSIM_PANIC("serial engine livelock: global=", global,
                           " scheme=", schemeName(engine_.scheme));
        }
        // A simulated deadlock shows up as clocks ticking forever with
        // no instructions committing: catch it instead of spinning.
        const std::uint64_t committed = sys_.totalCommittedUops();
        if (committed != last_committed) {
            last_committed = committed;
            committed_stale_since = global;
        } else if (global > committed_stale_since + 2000000) {
            std::string dump;
            for (CoreId c = 0; c < sys_.numCores(); ++c) {
                auto &cc = sys_.core(c);
                dump += " core" + std::to_string(c) + "{t=" +
                        std::to_string(cc.localTime()) + ",uops=" +
                        std::to_string(cc.stats().committedInstrs) +
                        ",inq=" + std::to_string(cc.inQ().size()) +
                        ",outq=" + std::to_string(cc.outQ().size()) +
                        ",l1iMiss=" +
                        std::to_string(cc.stats().l1iMisses) + "}";
            }
            SLACKSIM_PANIC("no commit progress for 2M cycles: global=",
                           global, " committed=", committed,
                           " scheme=", schemeName(engine_.scheme),
                           " busReq=", sys_.uncoreStats().busRequests,
                           dump);
        }
    }

    ckpt_.finalizeHostStats();
    session.finish(sys_.globalTime());
    clearLogThreadContext();
    const double wall =
        std::chrono::duration<double>(clock::now() - t0).count();
    RunResult r = collectResult(wall);
    r.cancelled = cancelled;
    r.forensics = session.takeForensics();
    return r;
}

RunResult
SerialEngine::collectResult(double wall_seconds) const
{
    RunResult r;
    r.workloadName = sys_.workload().name;
    r.scheme = engine_.scheme;
    r.parallelHost = false;
    r.execCycles = sys_.maxLocalTime();
    r.globalCycles = sys_.globalTime();
    r.committedUops = sys_.totalCommittedUops();
    r.host = host_;
    r.host.wallSeconds = wall_seconds;
    for (CoreId c = 0; c < sys_.numCores(); ++c) {
        const CoreComplex &cc = sys_.core(c);
        r.perCore.push_back(cc.stats());
        r.coreTotal.add(cc.stats());
        r.host.coreEvaluations += cc.evaluations();
        r.host.inertReentries += cc.inertReentries();
    }
    r.uncore = sys_.uncoreStats();
    r.busQueueHistogram = sys_.uncore().busQueueHistogram();
    r.violations = sys_.violations();
    r.intervals = mgr_.intervals();
    r.finalSlackBound = pacer_.currentBound();
    r.degradationLevel = recovery_.levelName();
    r.demotions = recovery_.demotions();
    r.repromotions = recovery_.repromotions();
    return r;
}

} // namespace slacksim
