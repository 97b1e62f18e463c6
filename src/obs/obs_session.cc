/**
 * @file
 * ObsSession implementation.
 */

#include "obs/obs_session.hh"

#include <algorithm>
#include <chrono>

#include "core/checkpointer.hh"
#include "core/manager_logic.hh"
#include "core/pacer.hh"
#include "core/sim_system.hh"
#include "obs/chrome_trace.hh"
#include "obs/progress.hh"
#include "obs/recorder.hh"
#include "util/io.hh"
#include "util/logging.hh"

namespace slacksim::obs {

ObsSession::ObsSession(const ObsConfig &config, SimSystem &sys,
                       Pacer &pacer, ManagerLogic &mgr,
                       Checkpointer &ckpt, const HostStats &host)
    : config_(config),
      sys_(sys),
      pacer_(pacer),
      mgr_(mgr),
      ckpt_(ckpt),
      host_(host)
{
}

ObsSession::~ObsSession()
{
    // Normal exit goes through finish(); this only releases the
    // recorder and the forensics wiring when an engine dies mid-run
    // (panic unwinding in tests). The wired components hold raw
    // pointers into this session, so unwiring before destruction is
    // load-bearing, not cosmetic.
    unwire();
    if (watchdog_)
        watchdog_->stop();
    if (recording_ && !finished_)
        Recorder::instance().end();
}

void
ObsSession::begin(const char *role)
{
    // The run's t0: trace timestamps, the profile's wall time and
    // every metrics row count from this one capture, and the fleet
    // merger uses it to shift this process onto the wall-epoch
    // timeline.
    anchor_ = captureClockAnchor();

    // Forensics is always on: its hot-path cost is one pointer test
    // plus table updates on actual violations, and an always-wired
    // ledger is what makes "ledger totals == ViolationStats"
    // unconditional. Wiring must precede the engine's initial
    // checkpoint so the ledger is serialized into every snapshot and
    // rewinds with the violation counters on rollback.
    ledger_.reset(sys_.numCores());
    decisions_.clear();
    sys_.uncore().setLedger(&ledger_);
    pacer_.setDecisionLog(&decisions_);
    ckpt_.setDecisionLog(&decisions_);
    wired_ = true;

    if (config_.watchdogMs > 0)
        watchdog_ = std::make_unique<StallWatchdog>(config_.watchdogMs);

    // One recorder session serves the trace, the profile and the
    // watchdog's phase column; trace rings exist only under
    // --trace-out.
    const bool trace = !config_.traceOut.empty();
    if (trace || config_.profile || watchdog_) {
        recording_ = Recorder::instance().begin(
            anchor_, trace ? std::max<std::uint32_t>(1, config_.bufferKb)
                           : 0);
        if (recording_) {
            Recorder::instance().registerThread(role);
            Recorder::instance().emitAt(anchor_.tsc, TraceType::Begin,
                                        TraceCategory::Engine,
                                        "engine-run", 0);
        } else {
            SLACKSIM_WARN("recorder session already active; trace, "
                          "profile and watchdog phases ignored for "
                          "this run");
        }
    }
    tracing_ = recording_ && trace;
    profiling_ = recording_ && config_.profile;
    if (profiling_) {
        // Hardware counters must open before worker threads spawn:
        // inherit=1 only covers threads created after the open.
        hw_ = std::make_unique<HwCounters>();
        hw_->open();
    }
    // Stamp the distributed-trace identity for this run.
    if (!config_.traceId.empty()) {
        traceInfo_.traceId = config_.traceId;
        traceInfo_.spanId = mintSpanId();
        traceInfo_.parentSpanId = config_.parentSpanId;
        traceInfo_.anchor = anchor_;
        traceInfo_.active = true;
    }
    // A live-progress observer needs the sampler running even when no
    // CSV was requested: the heartbeat is fed from the same epoch
    // samples, the rows just stay in memory.
    if (!config_.metricsOut.empty() || config_.progress) {
        Tick epoch = config_.metricsEpoch;
        if (epoch == 0) {
            const EngineConfig &engine = sys_.config().engine;
            epoch = engine.scheme == SchemeKind::Adaptive
                        ? engine.adaptive.epochCycles
                        : 1000;
        }
        sampler_ = std::make_unique<MetricsSampler>(epoch);
    }
}

void
ObsSession::unwire()
{
    if (!wired_)
        return;
    sys_.uncore().setLedger(nullptr);
    pacer_.setDecisionLog(nullptr);
    ckpt_.setDecisionLog(nullptr);
    wired_ = false;
}

std::uint64_t
ObsSession::wallNowNs() const
{
    const auto now = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    return now > anchor_.steadyNs ? now - anchor_.steadyNs : 0;
}

void
ObsSession::maybeSample(Tick global)
{
    if (sampler_ && sampler_->due(global))
        sample(global);
}

void
ObsSession::forceSample(Tick global)
{
    if (sampler_)
        sample(global);
}

void
ObsSession::sample(Tick global)
{
    Scope scope(Phase::Sample);
    const std::uint64_t t0 = wallNowNs();
    MetricsRow row;
    row.wallNs = t0;
    row.global = global;
    row.minLocal = sys_.globalTime();
    row.maxLocal = sys_.maxLocalTime();
    row.slackBound = pacer_.currentBound();
    row.replay = pacer_.replayMode();
    row.busViolations = sys_.violations().busViolations;
    row.mapViolations = sys_.violations().mapViolations;
    row.busRequests = sys_.uncoreStats().busRequests;
    row.busQueueingCycles = sys_.uncoreStats().busQueueingCycles;
    row.mgrPending = mgr_.pendingDepth();
    row.checkpoints = host_.checkpointsTaken;
    row.rollbacks = host_.rollbacks;
    row.coreLocal.reserve(sys_.numCores());
    row.coreInQ.reserve(sys_.numCores());
    row.coreOutQ.reserve(sys_.numCores());
    for (CoreId c = 0; c < sys_.numCores(); ++c) {
        row.coreLocal.push_back(sys_.core(c).localTime());
        // Queue sizes are acquire-read and approximate while the
        // owning threads run — exactly right for occupancy telemetry.
        row.coreInQ.push_back(sys_.core(c).inQ().size());
        row.coreOutQ.push_back(sys_.core(c).outQ().size());
    }
    if (config_.progress)
        publishProgress(row);
    sampler_->push(global, std::move(row));
    samplerHostNs_ += wallNowNs() - t0;
}

void
ObsSession::publishProgress(const MetricsRow &row)
{
    RunProgress &p = *config_.progress;
    // Windowed rates against the previous publish; the first window
    // spans the run so far.
    const std::uint64_t dns = row.wallNs > lastPubWallNs_
                                  ? row.wallNs - lastPubWallNs_
                                  : row.wallNs;
    if (dns > 0) {
        const double secs = static_cast<double>(dns) / 1e9;
        const Tick dcycles =
            row.global > lastPubGlobal_ ? row.global - lastPubGlobal_
                                        : 0;
        const std::uint64_t devents =
            row.busRequests > lastPubBusRequests_
                ? row.busRequests - lastPubBusRequests_
                : 0;
        p.cyclesPerSec.store(static_cast<double>(dcycles) / secs,
                             std::memory_order_relaxed);
        p.eventsPerSec.store(static_cast<double>(devents) / secs,
                             std::memory_order_relaxed);
        lastPubWallNs_ = row.wallNs;
        lastPubGlobal_ = row.global;
        lastPubBusRequests_ = row.busRequests;
    }
    p.wallNs.store(row.wallNs, std::memory_order_relaxed);
    p.globalCycle.store(row.global, std::memory_order_relaxed);
    p.slackBound.store(row.slackBound, std::memory_order_relaxed);
    p.violations.store(row.busViolations + row.mapViolations,
                       std::memory_order_relaxed);
    p.checkpoints.store(row.checkpoints, std::memory_order_relaxed);
    p.rollbacks.store(row.rollbacks, std::memory_order_relaxed);
    p.replay.store(row.replay, std::memory_order_relaxed);
    p.epochs.fetch_add(1, std::memory_order_relaxed);
}

void
ObsSession::warnOnFirstDrop()
{
    if (dropWarned_)
        return;
    dropWarned_ = true;
    SLACKSIM_WARN("trace ring overflow: events are being dropped; "
                  "raise --obs-buffer-kb (drops are accounted in the "
                  "run report)");
}

void
ObsSession::collectTrace()
{
    if (!tracing_)
        return;
    Recorder::instance().collect();
    if (Recorder::instance().droppedTotal() != 0)
        warnOnFirstDrop();
}

void
ObsSession::finish(Tick global)
{
    if (finished_)
        return;
    finished_ = true;

    if (watchdog_)
        watchdog_->stop();

    ObsSelfStats self;

    if (sampler_) {
        sample(global);
        // Progress-only sessions (heartbeat attached, no --metrics-out)
        // keep the rows in memory and write nothing.
        if (!config_.metricsOut.empty()) {
            CheckedOfstream os(config_.metricsOut, "metrics CSV");
            if (os.ok()) {
                sampler_->writeCsv(os.stream(), config_.jobId);
                self.metricsBytes = os.bytesWritten();
            }
            if (os.finish()) {
                SLACKSIM_INFORM("metrics: ", sampler_->rows().size(),
                                " epoch samples -> ",
                                config_.metricsOut);
            } else {
                ++self.ioErrors;
            }
        }
        self.metricsRows = sampler_->rows().size();
    }
    self.samplerHostNs = samplerHostNs_;

    traceEnd(TraceCategory::Engine, "engine-run", global);
    // Both engines join their workers before finish(), so every worker
    // slot is closed; end() closes the manager's own slot and converts
    // ticks to ns with the full-session calibration.
    Recorder::Result recorded;
    if (recording_)
        recorded = Recorder::instance().end();

    if (tracing_) {
        const auto &traces = recorded.traces;
        std::uint64_t records = 0;
        std::uint64_t dropped = 0;
        for (const auto &t : traces) {
            records += t.records.size();
            dropped += t.dropped;
        }
        if (dropped)
            warnOnFirstDrop();
        self.traceRecords = records;
        self.traceDropped = dropped;
        CheckedOfstream os(config_.traceOut, "Chrome trace");
        if (os.ok()) {
            ChromeTraceMeta meta;
            meta.pid = traceInfo_.anchor.pid;
            meta.processName = config_.jobId.empty()
                                   ? std::string("slacksim")
                                   : "slacksim " + config_.jobId;
            meta.traceId = traceInfo_.traceId;
            meta.spanId = traceInfo_.spanId;
            meta.parentSpanId = traceInfo_.parentSpanId;
            meta.wallAnchorUs = traceInfo_.anchor.wallUs;
            meta.steadyAnchorNs = traceInfo_.anchor.steadyNs;
            meta.tscAnchor = traceInfo_.anchor.tsc;
            writeChromeTrace(os.stream(), traces, meta);
            self.traceBytes = os.bytesWritten();
        }
        if (os.finish()) {
            SLACKSIM_INFORM("trace: ", records, " events on ",
                            traces.size(), " tracks -> ",
                            config_.traceOut,
                            dropped ? " (ring overflow dropped " : "",
                            dropped ? std::to_string(dropped) : "",
                            dropped ? " records; raise --obs-buffer-kb)"
                                    : "");
        } else {
            ++self.ioErrors;
        }
    }

    if (profiling_) {
        forensics_.profile = std::move(recorded.profile);
        if (hw_) {
            forensics_.profile.hw = hw_->read();
            hw_->close();
        }
        if (!forensics_.profile.verdict.empty())
            SLACKSIM_INFORM("profile: ", forensics_.profile.verdict);
        if (!config_.profileOut.empty()) {
            CheckedOfstream os(config_.profileOut, "folded stacks");
            if (os.ok())
                writeFoldedStacks(os.stream(), forensics_.profile);
            if (os.finish()) {
                SLACKSIM_INFORM("profile: folded stacks -> ",
                                config_.profileOut,
                                " (flamegraph.pl / speedscope)");
            } else {
                ++self.ioErrors;
            }
        }
    }

    // Unwire before moving the ledgers out: the uncore/pacer pointers
    // must never outlive the data they point into.
    unwire();
    forensics_.ledger = ledger_;
    forensics_.decisions = decisions_;
    forensics_.obs = self;
    forensics_.trace = traceInfo_;
    forensics_.watchdogEnabled = watchdog_ != nullptr;
    forensics_.stallMs = watchdog_ ? watchdog_->stallMs() : 0;
    forensics_.stallDumps = watchdog_ ? watchdog_->stallDumps() : 0;
    forensics_.lastStallDump =
        watchdog_ ? watchdog_->lastDump() : std::string();
}

} // namespace slacksim::obs
