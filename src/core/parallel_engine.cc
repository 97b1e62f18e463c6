/**
 * @file
 * ParallelEngine implementation.
 */

#include "core/parallel_engine.hh"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "fault/fault_plan.hh"
#include "obs/obs_session.hh"
#include "obs/recorder.hh"
#include "util/cancel.hh"
#include "util/logging.hh"
#include "util/run_token.hh"

namespace slacksim {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

// core-park span arg: why the worker went to sleep.
constexpr std::int64_t parkPaced = 0;   //!< at the pacing limit
constexpr std::int64_t parkInbound = 1; //!< inert, awaiting delivery

// Park spans shorter than this are dropped: an atomic wait that
// returned immediately is scheduler noise, not a park worth a record.
constexpr std::uint64_t parkSpanMinNs = 1000;

// Idle scans a worker yields through before parking. On an
// oversubscribed host the yield usually schedules the manager, whose
// next service round unblocks us without any futex round trip.
constexpr std::uint32_t spinRoundsBeforePark = 4;

} // namespace

ParallelEngine::ParallelEngine(SimSystem &sys)
    : sys_(sys),
      engine_(sys.config().engine),
      pacer_(engine_, sys.numCores(), &host_),
      mgr_(sys, engine_, &host_),
      ckpt_(sys, pacer_, mgr_, engine_, &host_),
      controls_(sys.numCores()),
      wakePending_(sys.numCores()),
      board_(sys.numCores())
{
    // Worker topology. EngineConfig::hostThreads counts the manager,
    // so W = hostThreads - 1 workers share the simulated cores; the
    // auto policy (hostThreads = 0) sizes from the machine so a
    // single-CPU host lands in inline mode (W = 0) where concurrency
    // could only ever add park/wake overhead. Sorted service is the
    // manager's, so a cycle-by-cycle run launches no workers at all.
    std::uint32_t requested = engine_.hostThreads;
    if (requested == 0) {
        requested =
            std::max(1u, std::thread::hardware_concurrency());
    }
    const std::uint32_t want =
        pacer_.sortedService()
            ? 0
            : std::min<std::uint32_t>(sys_.numCores(), requested - 1);
    if (want > 0) {
        const CoreId per = (sys_.numCores() + want - 1) / want;
        for (std::uint32_t w = 0; w < want; ++w) {
            auto wc = std::make_unique<WorkerControl>();
            wc->first = static_cast<CoreId>(w * per);
            wc->last = static_cast<CoreId>(
                std::min<std::uint64_t>(sys_.numCores(),
                                        std::uint64_t{w + 1} * per));
            if (wc->first < wc->last)
                workers_.push_back(std::move(wc));
        }
    }
    workerCount_ = static_cast<std::uint32_t>(workers_.size());
    workerOf_.assign(sys_.numCores(), 0);
    for (std::uint32_t w = 0; w < workerCount_; ++w)
        for (CoreId c = workers_[w]->first; c < workers_[w]->last; ++c)
            workerOf_[c] = w;
    workerWoken_.assign(workerCount_, 0);
    lastRun_.assign(sys_.numCores(),
                    static_cast<std::uint8_t>(CoreRun::Progress));
    lookahead_ = std::max<Tick>(1, sys_.uncore().lookahead());
    localsScratch_.assign(sys_.numCores(), 0);
}

void
ParallelEngine::requestWake(CoreId c)
{
    wakePending_.set(c);
}

void
ParallelEngine::wakeWorkerNow(std::uint32_t w)
{
    WorkerControl &wc = *workers_[w];
    wc.wakeWord.fetch_add(1, std::memory_order_seq_cst);
    // Skip the futex syscall for a running worker. Store-buffering
    // argument for why the skip cannot lose a wake: the worker stores
    // `parked = true` (seq_cst) *before* re-reading the wake word it
    // captured ahead of its scan. If we read `parked == false` here,
    // our word bump is ordered before the worker's parked-store in
    // the single total order, so coherence forces the worker's
    // subsequent word read (the atomic-wait value check) to observe
    // the bump and return immediately.
    if (wc.parked.load(std::memory_order_seq_cst))
        wc.wakeWord.notify_one();
}

void
ParallelEngine::flushWakes()
{
    // Inline mode marks nothing: it has no worker to wake.
    if (!wakePending_.any())
        return;
    std::fill(workerWoken_.begin(), workerWoken_.end(), 0);
    wakePending_.drain([this](std::uint32_t c) {
        const std::uint32_t w = workerOf_[c];
        if (!workerWoken_[w]) {
            workerWoken_[w] = 1;
            wakeWorkerNow(w);
        }
    });
}

ParallelEngine::CoreRun
ParallelEngine::runCoreBurst(CoreId c, bool by_manager, Tick wake)
{
    CoreComplex &cc = sys_.core(c);
    CoreControl &ctl = controls_[c];

    if (cc.finished()) {
        if (!ctl.finished.load(std::memory_order_relaxed)) {
            // Count first: a reader that sees the flag sees the final
            // count.
            ctl.committed.store(cc.committedUops(),
                                std::memory_order_relaxed);
            ctl.finished.store(true, std::memory_order_release);
            if (by_manager) {
                // Final drain at the transition; a finished core
                // emits nothing more, so later rounds skip it
                // entirely (the serial engine rescans every round).
                mgr_.pumpCore(c);
            } else {
                board_.bump(c);
            }
            if (watchdog_)
                watchdog_->note(c, "finished", cc.localTime());
        }
        return CoreRun::Finished;
    }
    ctl.finished.store(false, std::memory_order_relaxed);

    const Tick local = cc.localTime();
    if (local > ctl.maxLocal.load(std::memory_order_acquire))
        return CoreRun::Paced;

    if (auto *plan = fault::FaultPlan::active()) {
        if (const std::uint64_t ms =
                plan->fireWorkerStall(c, cc.localTime())) {
            // Injected wedge: this worker goes dark for a while.
            // The stall watchdog (if armed) is what notices.
            if (watchdog_)
                watchdog_->note(c, "fault-stall", cc.localTime());
            std::this_thread::sleep_for(
                std::chrono::milliseconds(ms));
            plan->markLastHandled(watchdog_ ? "stall-watchdog"
                                            : "bounded-stall");
        }
    }

    // Only the manager serves sorted: it paces by the horizon and
    // accounts skipped stall cycles exactly.
    const bool sorted = by_manager && pacer_.sortedService();
    const auto accounting = sorted ? CoreComplex::StallAccounting::Exact
                                   : CoreComplex::StallAccounting::Idle;
    bool backpressured = false;
    bool wait_inbound = false;
    Tick advanced = 0;
    {
        obs::Scope simulate(obs::Phase::Simulate);
        // Inline mode: the manager is the only writer of maxLocal and
        // phase/stop, and it cannot change them mid-burst — load once
        // and run the same tight loop the serial engine runs.
        const Tick pinned_max_local =
            ctl.maxLocal.load(std::memory_order_acquire);
        while (advanced < engine_.burstCycles) {
            Tick max_local = pinned_max_local;
            if (!by_manager) {
                max_local =
                    ctl.maxLocal.load(std::memory_order_acquire);
                if (phase_.load(std::memory_order_relaxed) !=
                        phaseRunning ||
                    stop_.load(std::memory_order_relaxed)) {
                    break;
                }
            }
            if (cc.localTime() > max_local)
                break;
            const Tick before = cc.localTime();
            const std::uint32_t budget =
                engine_.burstCycles - static_cast<std::uint32_t>(advanced);
            // Nothing delivers to a core during the manager's burst,
            // so the wake hint it read holds: one beyond the limit
            // means the core can only advance its clock, and the
            // O(1) re-entry cycle() would make is the whole burst.
            const auto outcome =
                wake > max_local
                    ? cc.reenterInert(wake, max_local, budget, accounting)
                    : cc.cycle(max_local, budget, accounting);
            if (outcome == CoreComplex::CycleOutcome::Backpressure) {
                if (sorted) {
                    // Sorted service only stages what a pump pulls,
                    // so drain and go on: every core then reaches the
                    // same clock each round, as stepping would leave
                    // them.
                    mgr_.pumpCore(c);
                    continue;
                }
                backpressured = true;
                break;
            }
            if (outcome == CoreComplex::CycleOutcome::WaitInbound) {
                wait_inbound = true;
                break;
            }
            advanced += cc.localTime() - before;
            if (cc.finished())
                break;
        }
        if (advanced > 0) {
            simulate.commit(obs::TraceCategory::Core, "core-run", local,
                            cc.localTime(),
                            static_cast<std::int64_t>(advanced));
        }
    }
    ctl.committed.store(cc.committedUops(), std::memory_order_relaxed);
    if (by_manager) {
        // Single-thread run: pump this core's OutQ while its lines
        // are cache-hot, exactly the serial engine's queue-push
        // cadence. A burst that emitted nothing (an idle or skipping
        // one) leaves the queue empty, so the pump is skipped where
        // the serial engine rescans. Nobody sleeps on the board, so
        // skip the bump too.
        if (!cc.outQ().empty()) {
            obs::Scope push(obs::Phase::QueuePush);
            mgr_.pumpCore(c);
        }
    } else if (advanced > 0 || backpressured || wait_inbound) {
        board_.bump(c);
    }

    if (advanced > 0)
        return CoreRun::Progress;
    if (backpressured)
        return CoreRun::Backpressure;
    if (wait_inbound)
        return CoreRun::Inbound;
    return CoreRun::Paced;
}

inline void
ParallelEngine::noteWakeHint(ClockSample &s, CoreId c)
{
    const CoreComplex &cc = sys_.core(c);
    if (!cc.finished())
        s.earliestWake = std::min(s.earliestWake, cc.wakeHint());
}

inline void
ParallelEngine::noteClock(ClockSample &s, CoreId c, Tick t, bool finished)
{
    localsScratch_[c] = t;
    s.maxAny = std::max(s.maxAny, t);
    if (!finished) {
        s.minUnfinished = std::min(s.minUnfinished, t);
        s.maxUnfinished = std::max(s.maxUnfinished, t);
    }
}

void
ParallelEngine::sealSample(ClockSample &s)
{
    s.global = s.minUnfinished == maxTick ? s.maxAny : s.minUnfinished;
}

ParallelEngine::ClockSample
ParallelEngine::sampleClocks()
{
    ClockSample s;
    const bool counting = countingUops();
    // Hints are read only under sorted service, which the manager
    // drives alone.
    const bool hints = pacer_.sortedService();
    for (CoreId c = 0; c < sys_.numCores(); ++c) {
        const CoreControl &ctl = controls_[c];
        noteClock(s, c, sys_.core(c).localTime(),
                  ctl.finished.load(std::memory_order_acquire));
        if (counting)
            s.committed += ctl.committed.load(std::memory_order_acquire);
        if (hints)
            noteWakeHint(s, c);
    }
    sealSample(s);
    return s;
}

bool
ParallelEngine::driveInline(ClockSample &sample)
{
    const CoreId n = sys_.numCores();
    const CoreId start = inlineRotate_;
    const bool sorted = pacer_.sortedService();
    const bool counting = countingUops();
    bool progress = false;
    Tick covered = 1;
    sample = ClockSample{};
    for (CoreId i = 0, c = start; i < n; ++i, c = c + 1 == n ? 0 : c + 1) {
        const CoreComplex &cc = sys_.core(c);
        const CoreControl &ctl = controls_[c];
        const Tick before = cc.localTime();
        const CoreRun r = runCoreBurst(c, true, cc.wakeHint());
        lastRun_[c] = static_cast<std::uint8_t>(r);
        if (r == CoreRun::Progress)
            progress = true;
        const Tick after = cc.localTime();
        covered = std::max(covered, after - before);
        if (counting)
            sample.committed += ctl.committed.load(std::memory_order_acquire);
        noteClock(sample, c, after,
                  ctl.finished.load(std::memory_order_acquire));
        if (sorted)
            noteWakeHint(sample, c);
    }
    sealSample(sample);
    // Each round starts one core later. A horizon round stands for
    // one stepped round per cycle it covered, so it rotates as far:
    // the slack rounds after a speculative replay then see the order
    // one-cycle replay rounds would have left.
    inlineRotate_ = static_cast<CoreId>(
        (start + (sorted ? covered % n : 1)) % n);
    return progress;
}

void
ParallelEngine::workerThreadMain(std::uint32_t w)
{
    WorkerControl &wc = *workers_[w];
    std::uint32_t acked_gen = 0;
    std::uint32_t idle_rounds = 0;

    // Adopt the run's identity on this (possibly pool-borrowed) host
    // thread: the token gates obs registration to our own run's
    // sessions, the fault-plan binding scopes injected faults to us.
    ScopedRunToken token_scope(sys_.runToken());
    fault::ScopedFaultPlan plan_scope(sys_.faultPlan());

    const std::string role = "worker " + std::to_string(w);
    setLogThreadContext(role, &sys_.core(wc.first).localClock());
    obs::Recorder::instance().registerThread(role);

    while (!stop_.load(std::memory_order_acquire)) {
        if (phase_.load(std::memory_order_acquire) != phaseRunning) {
            // Stop-the-world pause: acknowledge exactly once per
            // pause generation (atomic waits may wake spuriously),
            // then sleep until resumed.
            const std::uint32_t gen =
                pauseGen_.load(std::memory_order_acquire);
            if (gen != acked_gen) {
                acked_gen = gen;
                ackCount_.fetch_add(1, std::memory_order_seq_cst);
                ackCount_.notify_one();
                if (watchdog_)
                    watchdog_->note(wc.first, "pause-ack", 0);
            }
            // A resume and the next pause may both have landed since
            // the generation was read (a replay can end and the next
            // rollback begin within one manager round): never sleep
            // through a generation this worker has not acknowledged.
            const std::uint32_t e =
                resumeEpoch_.load(std::memory_order_acquire);
            if (phase_.load(std::memory_order_acquire) !=
                    phaseRunning &&
                pauseGen_.load(std::memory_order_acquire) == acked_gen &&
                !stop_.load(std::memory_order_acquire)) {
                obs::Scope barrier(obs::Phase::Barrier);
                resumeEpoch_.wait(e, std::memory_order_acquire);
            }
            continue;
        }

        // Capture the wake word *before* scanning: every manager-side
        // state change after this point bumps the word, so the park
        // below cannot sleep through it.
        const std::uint32_t word =
            wc.wakeWord.load(std::memory_order_acquire);

        bool progress = false;
        bool retry = false;
        bool any_paced = false;
        for (CoreId c = wc.first;
             c < wc.last &&
             phase_.load(std::memory_order_relaxed) == phaseRunning &&
             !stop_.load(std::memory_order_relaxed);
             ++c) {
            const CoreRun r = runCoreBurst(c, false);
            lastRun_[c] = static_cast<std::uint8_t>(r);
            if (r == CoreRun::Progress)
                progress = true;
            else if (r == CoreRun::Backpressure)
                retry = true;
            else if (r == CoreRun::Paced)
                any_paced = true;
        }
        if (progress) {
            idle_rounds = 0;
            continue;
        }
        if (retry || ++idle_rounds <= spinRoundsBeforePark) {
            // Backpressure wants the manager scheduled to drain our
            // OutQs; a freshly idle scan usually resolves within a
            // service round or two. Either way, yield beats a futex.
            obs::Scope wait(any_paced ? obs::Phase::WaitSlack
                                      : obs::Phase::WaitInbound);
            std::this_thread::yield();
            continue;
        }
        idle_rounds = 0;

        // Every owned core is blocked: announce the park, then
        // re-verify blockage *and* the wake word. The manager's
        // paired load in wakeWorkerNow() makes the announce-first
        // order lost-wake-free.
        wc.parked.store(true, std::memory_order_seq_cst);
        bool still_blocked = true;
        for (CoreId c = wc.first; c < wc.last; ++c) {
            CoreComplex &cc = sys_.core(c);
            if (cc.finished())
                continue;
            if (cc.localTime() >
                controls_[c].maxLocal.load(std::memory_order_seq_cst))
                continue;
            if (lastRun_[c] ==
                    static_cast<std::uint8_t>(CoreRun::Inbound) &&
                cc.inQ().empty())
                continue;
            still_blocked = false;
            break;
        }
        if (still_blocked &&
            wc.wakeWord.load(std::memory_order_seq_cst) == word &&
            phase_.load(std::memory_order_acquire) == phaseRunning &&
            !stop_.load(std::memory_order_acquire)) {
            const Tick park_cycle = sys_.core(wc.first).localTime();
            if (watchdog_) {
                watchdog_->note(wc.first,
                                any_paced ? "park-paced"
                                          : "park-inbound",
                                park_cycle);
            }
            {
                obs::Scope wait(any_paced ? obs::Phase::WaitSlack
                                          : obs::Phase::WaitInbound);
                wc.wakeWord.wait(word, std::memory_order_acquire);
                // Skip waits that returned at once — futex misses
                // would otherwise flood the ring.
                wait.commit(obs::TraceCategory::Core, "core-park",
                            park_cycle, sys_.core(wc.first).localTime(),
                            any_paced ? parkPaced : parkInbound,
                            parkSpanMinNs);
            }
            ++wc.parks;
            if (watchdog_) {
                watchdog_->note(wc.first, "resume",
                                sys_.core(wc.first).localTime());
            }
        }
        wc.parked.store(false, std::memory_order_seq_cst);
    }

    obs::Recorder::instance().unregisterThread();
    clearLogThreadContext();
}

Tick
ParallelEngine::sortedHorizon(const ClockSample &s) const
{
    // A delivery parked in an overflow deque is invisible to its
    // core's wake hint: step until it reaches the InQ.
    if (mgr_.overflowPending())
        return s.global + 1;
    const Tick eot = std::min(mgr_.earliestStaged(), s.earliestWake);
    if (eot == maxTick)
        return s.global + 1; // nothing can ever wake: let the watchdog see
    // One round runs at most L cycles that can commit, each at most
    // commitWidth uops per core. Close to a stop or warmup threshold,
    // a round must end on the very cycle that crosses it.
    Tick lookahead = lookahead_;
    const std::uint64_t threshold =
        warmupPending_ ? engine_.warmupUops : engine_.maxCommittedUops;
    if (threshold != 0 &&
        s.committed + std::uint64_t{sys_.numCores()} *
                          sys_.config().target.core.commitWidth *
                          lookahead >=
            threshold) {
        lookahead = 1;
    }
    return std::max(s.global + 1, eot + lookahead);
}

void
ParallelEngine::updatePacing(const ClockSample &sample)
{
    const Tick boundary =
        ckpt_.enabled() ? ckpt_.nextCheckpointAt() - 1 : maxTick;
    if (pacer_.sortedService()) {
        // The horizon shrinks near a uop threshold, so it is set, not
        // only raised. Nobody else reads maxLocal inline.
        const Tick target = std::min(sortedHorizon(sample) - 1, boundary);
        for (auto &ctl : controls_)
            ctl.maxLocal.store(target, std::memory_order_relaxed);
        return;
    }
    for (CoreId c = 0; c < sys_.numCores(); ++c) {
        const Tick target = std::min(
            pacer_.maxLocalForCore(c, sample.global, localsScratch_),
            boundary);
        CoreControl &ctl = controls_[c];
        const Tick cur = ctl.maxLocal.load(std::memory_order_relaxed);
        if (target > cur) {
            // With no worker threads the store has no reader to race
            // with; seq_cst (needed for the parked-recheck protocol)
            // would cost a full fence per core per iteration. Each
            // branch names its order as a constant: a runtime order
            // compiles to seq_cst.
            if (inlineMode()) {
                ctl.maxLocal.store(target, std::memory_order_relaxed);
            } else {
                ctl.maxLocal.store(target, std::memory_order_seq_cst);
                requestWake(c);
            }
        }
    }
    // One coalesced sweep covers the pacing changes above *and* the
    // deliveries drainDelivered() marked earlier in the iteration:
    // at most one bump + futex per worker per manager round.
    flushWakes();
}

void
ParallelEngine::pauseWorld()
{
    // While the manager drives a replay the workers already sit
    // paused, and the acks of that pause still count: waiting on them
    // again would return at once, and resumeWorld() would then
    // release the workers mid-replay.
    if (inlineMode())
        return;
    // The manager side of the stop-the-world handshake: request,
    // wake, then wait for every ack.
    obs::Scope barrier(obs::Phase::Barrier);
    pauseGen_.fetch_add(1, std::memory_order_seq_cst);
    phase_.store(phasePaused, std::memory_order_seq_cst);
    for (std::uint32_t w = 0; w < workerCount_; ++w)
        wakeWorkerNow(w);
    // Wait until every worker thread acknowledged the pause.
    std::uint32_t acked = ackCount_.load(std::memory_order_acquire);
    while (acked < workerCount_) {
        ackCount_.wait(acked, std::memory_order_acquire);
        acked = ackCount_.load(std::memory_order_acquire);
    }
}

void
ParallelEngine::resumeWorld()
{
    if (inlineMode())
        return;
    ackCount_.store(0, std::memory_order_seq_cst);
    phase_.store(phaseRunning, std::memory_order_seq_cst);
    resumeEpoch_.fetch_add(1, std::memory_order_seq_cst);
    resumeEpoch_.notify_all();
}

void
ParallelEngine::refreshControlAfterRestore()
{
    for (CoreId c = 0; c < sys_.numCores(); ++c) {
        CoreControl &ctl = controls_[c];
        ctl.committed.store(sys_.core(c).committedUops(),
                            std::memory_order_relaxed);
        ctl.finished.store(sys_.core(c).finished(),
                           std::memory_order_release);
    }
}

RunResult
ParallelEngine::run()
{
    const auto t0 = std::chrono::steady_clock::now();
    setLogThreadContext("manager");
    obs::ObsSession session(engine_.obs, sys_, pacer_, mgr_, ckpt_,
                            host_);
    session.begin("manager");
    recovery_.setDecisionLog(session.decisionLog());
    if (obs::StallWatchdog *wd = session.watchdog()) {
        // Registration order fixes the worker indices the hot-path
        // note() calls use: cores first, manager last.
        for (CoreId c = 0; c < sys_.numCores(); ++c) {
            wd->addWorker("core " + std::to_string(c),
                          &sys_.core(c).localClock(),
                          &controls_[c].finished,
                          /*stall_eligible=*/true);
        }
        // The manager blocks legitimately (all cores finished, uop
        // budget races); keep it informational only.
        wd->addWorker("manager", nullptr, nullptr,
                      /*stall_eligible=*/false);
        wd->setProgressProbe([this] {
            return "progress-sum=" + std::to_string(board_.sum()) +
                   " generation=" +
                   std::to_string(board_.generation());
        });
        wd->start();
        watchdog_ = wd;
    }
    mgr_.setSorted(pacer_.sortedService());
    warmupPending_ = engine_.warmupUops > 0;
    if (ckpt_.enabled()) {
        const auto event = ckpt_.takeCheckpoint(0);
        SLACKSIM_ASSERT(event == Checkpointer::Event::Taken,
                        "fork checkpoints are serial-only");
    }
    updatePacing(sampleClocks());

    TaskRunner &runner =
        engine_.runner ? *engine_.runner : fallbackRunner_;
    threads_.reserve(workerCount_);
    for (std::uint32_t w = 0; w < workerCount_; ++w)
        threads_.push_back(
            runner.launch([this, w] { workerThreadMain(w); }));
    host_.hostThreadsUsed = 1 + workerCount_;

    // A cancel request may arrive while the manager is parked on the
    // progress board; the waker is a pure futex kick (wakers must not
    // block — they run under the token's registry lock).
    ScopedWaker cancel_waker(engine_.cancel,
                             [this] { board_.wakeAll(); });
    bool cancelled = false;

    Tick last_global = 0;
    // Wall time of the first round on which global time stood still;
    // only such stalled rounds read the clock.
    bool stalled = false;
    std::chrono::steady_clock::time_point stalled_since;

    for (;;) {
        if (engine_.cancel && engine_.cancel->cancelled()) {
            cancelled = true;
            break;
        }
        ++host_.managerRounds;
        // The board only matters as a sleep/wake channel; an inline
        // run never sleeps, so skip the two sharded sums.
        const std::uint64_t p0 = inlineMode() ? 0 : board_.sum();

        // Threaded, the clocks are read *before* pumping: every event
        // with a timestamp below the resulting safe time (the global
        // time) is then already in its OutQ. Workers only ever run
        // slack schemes, whose service is in arrival order; sorted
        // service is inline. One scan serves the safe time, the
        // pacing targets, and the slack-spread stat below.
        //
        // Inline runs burst-then-sample, the serial engine's own
        // cadence: the bursts pump their OutQs synchronously, so
        // sampling *after* them is just as safe (any future event from
        // a core is stamped at or above that core's current clock) —
        // and it paces the next round a full slack window ahead of
        // where the cores actually are, not where they were a round
        // ago. One scan per round, like the serial engine.
        std::size_t activity = 0;
        ClockSample clocks;
        if (inlineMode()) {
            if (driveInline(clocks))
                ++activity;
        } else {
            clocks = sampleClocks();
        }
        const Tick global = clocks.global;
        if (auto *plan = fault::FaultPlan::active()) {
            // Serve-site faults before backpressure: job-crash never
            // returns, job-hang wedges the manager right here.
            plan->fireServeFault(global);
            if (const std::uint64_t rounds =
                    plan->fireBackpressure(global)) {
                backpressureRounds_ += rounds;
            }
        }
        if (backpressureRounds_ > 0) {
            // Injected backpressure burst: the manager withholds
            // pumping and service, so the SPSC OutQs fill and cores
            // hit their backpressure path (yield + retry) until the
            // burst drains.
            if (--backpressureRounds_ == 0) {
                if (auto *plan = fault::FaultPlan::active())
                    plan->markLastHandled("manager-resumed");
            }
            // Count the skip as activity so the manager keeps
            // iterating (and draining the burst) instead of sleeping
            // on the progress board with service suspended.
            ++activity;
        } else {
            obs::Scope drain(obs::Phase::Drain);
            // Inline bursts pumped their own OutQs already; a second
            // all-core scan would find them empty.
            if (!inlineMode())
                activity += mgr_.pumpAll();
            activity += mgr_.serviceSorted(global);
            mgr_.flushOverflow();
            if (activity > 0) {
                drain.commit(obs::TraceCategory::Manager,
                             "manager-service", global, global,
                             static_cast<std::int64_t>(activity));
            }
            // Mark any core that just received a delivery for the
            // coalesced wake sweep: inert free-running cores sleep
            // until their InQ gets something. updatePacing() below
            // flushes the sweep. Inline mode has nobody to wake; the
            // marks still need clearing. Under sorted service a
            // delivery is the only thing that can have moved a wake
            // hint since the core's burst, and only earlier.
            if (!inlineMode()) {
                mgr_.drainDelivered([this](CoreId c) {
                    requestWake(c);
                });
            } else if (pacer_.sortedService()) {
                mgr_.drainDelivered([this, &clocks](CoreId c) {
                    noteWakeHint(clocks, c);
                });
            } else {
                mgr_.drainDelivered([](CoreId) {});
            }
        }
        pacer_.observe(global, sys_.violations());
        recovery_.observe(global, sys_.violations());
        updatePacing(clocks);
        session.maybeSample(global);
        if (clocks.minUnfinished != maxTick &&
            clocks.maxUnfinished > clocks.minUnfinished) {
            host_.maxObservedSlack =
                std::max(host_.maxObservedSlack,
                         clocks.maxUnfinished - clocks.minUnfinished);
        }

        // Inline, nothing has moved a clock, finished flag or commit
        // count since the round's pass; threaded, the workers run on,
        // so look again.
        ClockSample seen = inlineMode() ? clocks : sampleClocks();
        if (ckpt_.enabled()) {
            if (mgr_.rollbackRequested()) {
                pauseWorld();
                const Tick rb_global = sampleClocks().global;
                const auto rb = ckpt_.rollback(rb_global);
                if (rb.status ==
                    Checkpointer::RollbackResult::Status::Demoted) {
                    // No valid checkpoint generation: nothing was
                    // restored; keep running forward without
                    // speculation instead of dying.
                    recovery_.noteIntegrityDemotion(rb_global);
                    updatePacing(sampleClocks());
                    session.collectTrace();
                    resumeWorld();
                    ++activity;
                    continue;
                }
                recovery_.noteRollback(rb_global);
                refreshControlAfterRestore();
                mgr_.setSorted(true);
                // The manager drives the replay, so the workers stay
                // paused until the boundary where it ends.
                updatePacing(sampleClocks());
                session.forceSample(rb.resumedAt);
                session.collectTrace();
                ++activity;
                continue;
            }
            const Tick boundary = ckpt_.nextCheckpointAt();
            if (seen.quiescedAt(boundary) && mgr_.pumpAll() == 0) {
                // All unfinished cores are parked exactly at the
                // boundary and no stragglers remain in the OutQs:
                // the world is stable, snapshot it directly.
                const bool was_replay = pacer_.replayMode();
                const auto event = ckpt_.takeCheckpoint(boundary);
                SLACKSIM_ASSERT(event == Checkpointer::Event::Taken,
                                "fork checkpoints are serial-only");
                if (was_replay && !pacer_.sortedService()) {
                    mgr_.serviceSorted(maxTick);
                    mgr_.setSorted(false);
                    mgr_.flushOverflow();
                    // The replay is over: the workers its rollback
                    // paused take their cores back.
                    resumeWorld();
                }
                updatePacing(sampleClocks());
                session.forceSample(boundary);
                session.collectTrace();
                ++activity;
                continue;
            }
        }

        if (warmupPending_ && seen.committed >= engine_.warmupUops) {
            // Stop the world so no core mutates its stats while the
            // warmup measurements are discarded.
            pauseWorld();
            sys_.resetSimStats();
            refreshControlAfterRestore();
            resumeWorld();
            warmupPending_ = false;
            ++activity;
            seen = sampleClocks();
        }

        // Stop conditions.
        if (engine_.maxCommittedUops && !warmupPending_ &&
            seen.committed >= engine_.maxCommittedUops) {
            break;
        }
        if (seen.allFinished()) {
            mgr_.pumpAll();
            mgr_.serviceSorted(maxTick);
            mgr_.flushOverflow();
            break;
        }
        // Watchdog on stalled global time. The window opens at the
        // first round on which global time did not advance.
        if (global != last_global) {
            last_global = global;
            stalled = false;
        } else if (!stalled) {
            stalled = true;
            stalled_since = std::chrono::steady_clock::now();
        } else if (secondsSince(stalled_since) >
                   engine_.watchdogSeconds) {
            SLACKSIM_PANIC("parallel engine watchdog: no global ",
                           "progress, global=", global,
                           " scheme=", schemeName(engine_.scheme));
        }

        if (activity == 0 && (inlineMode() || board_.sum() == p0)) {
            // Inline mode: the manager itself is the only thread that
            // drives the cores, so sleeping on the board would
            // deadlock. Yield, then re-drive (the stalled-global
            // watchdog above still catches a true deadlock).
            if (inlineMode()) {
                std::this_thread::yield();
                continue;
            }
            obs::Scope wait(obs::Phase::WaitInbound);
            // The eligibility re-check (after sleeper registration)
            // closes the race with a cancel that fired its wakeAll
            // kick before we parked.
            board_.sleep(p0, [this] {
                return !engine_.cancel || !engine_.cancel->cancelled();
            });
            ++host_.managerWakeups;
        }
    }

    // Shut the worker threads down.
    stop_.store(true, std::memory_order_seq_cst);
    resumeEpoch_.fetch_add(1, std::memory_order_seq_cst);
    resumeEpoch_.notify_all();
    for (std::uint32_t w = 0; w < workerCount_; ++w)
        wakeWorkerNow(w);
    for (auto &t : threads_)
        t->join();
    threads_.clear();
    for (const auto &wc : workers_)
        host_.coreParkEvents += wc->parks;

    ckpt_.finalizeHostStats();
    session.finish(sampleClocks().global);
    watchdog_ = nullptr; // owned by the session; run is over
    clearLogThreadContext();
    RunResult r = collectResult(secondsSince(t0));
    r.cancelled = cancelled;
    r.forensics = session.takeForensics();
    return r;
}

RunResult
ParallelEngine::collectResult(double wall_seconds) const
{
    RunResult r;
    r.workloadName = sys_.workload().name;
    r.scheme = engine_.scheme;
    r.parallelHost = true;
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
