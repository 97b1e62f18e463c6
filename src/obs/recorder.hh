/**
 * @file
 * The instrumentation primitive: one process-wide recorder of
 * per-thread slots, read by every observability output.
 *
 * Each registered host thread owns a slot holding its phase stack and
 * path table (the host-time profile: where did the host cycles go?),
 * a live-phase byte (what the stall watchdog prints for the thread),
 * and — only under --trace-out — a lock-free ring of timeline records
 * (the Chrome trace). A Scope attributes a region of host time to a
 * Phase; when its caller commits it, the same two counter reads that
 * time the phase also become the span's B/E pair on the thread's
 * track. Cross-call spans (engine-run, replay), instants and counters
 * go to the same ring on the same clock.
 *
 * One clock: every timestamp is a raw counter tick (rdtsc on x86, the
 * virtual counter on aarch64, steady_clock elsewhere). The session's
 * t0 is the ClockAnchor the caller captures at begin; end() converts
 * ticks to ns once, with a calibration measured across the whole
 * session against steady_clock — no per-record conversion cost and no
 * dependence on a short warmup spin.
 *
 * Hot-path contract: with no session armed, a Scope or an emit helper
 * is one relaxed atomic load (enforced by perf_smoke --baseline).
 * Armed, a scope is two counter reads plus owner-thread writes,
 * including relaxed stores of the live phase; a committed scope adds
 * two SPSC ring pushes.
 *
 * Threading: registration, collection and end() are mutex-guarded
 * cold paths. Phase state is owner-thread-only; end() must run after
 * worker threads joined (both engines join before
 * ObsSession::finish()), which gives the reader a happens-before over
 * every plain field. Only the live-phase byte is read while workers
 * run, and the rings follow the SPSC protocol so records can be
 * drained mid-run. Sessions are epoch-numbered so a thread that never
 * re-registered after a previous run cannot touch a stale slot.
 */

#ifndef SLACKSIM_OBS_RECORDER_HH
#define SLACKSIM_OBS_RECORDER_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/span.hh"
#include "obs/trace_buffer.hh"
#include "obs/trace_event.hh"

namespace slacksim::obs {

/** Host-time attribution categories. Order is the report order. */
enum class Phase : std::uint8_t {
    Simulate,       //!< advancing target state (core bursts, uncore service)
    QueuePush,      //!< moving events between queues / backpressure
    WaitSlack,      //!< parked at the pacing limit (slack exhausted)
    WaitInbound,    //!< parked waiting for deliveries / progress
    Barrier,        //!< stop-the-world pause handshake
    Checkpoint,     //!< taking a snapshot
    RollbackReplay, //!< restoring a snapshot / replay bookkeeping
    Drain,          //!< manager service block (pump + sorted service)
    PacerEpoch,     //!< adaptive-controller epoch evaluation
    Sample,         //!< metrics sampler snapshot
};

/** Number of real phases (excludes the synthetic "other"). */
inline constexpr std::size_t numPhases = 10;

/** @return stable lowercase name for a phase. */
const char *phaseName(Phase p);

/** Totals for one phase (or one stack path). */
struct PhaseTotal
{
    std::string name; //!< phase name, or ";"-joined path
    std::uint64_t ns = 0;
    std::uint64_t count = 0;
};

/** One host thread's attribution. */
struct ProfileWorker
{
    std::string role;            //!< "worker 3", "manager"
    std::uint32_t tid = 0;       //!< registration order
    std::uint64_t spanNs = 0;    //!< register -> unregister/collect
    std::uint64_t otherNs = 0;   //!< span minus attributed time
    std::uint64_t truncated = 0; //!< scopes past the nesting cap
    std::uint64_t droppedPaths = 0; //!< path-table overflow victims
    std::vector<PhaseTotal> phases; //!< per-phase exclusive totals
    std::vector<PhaseTotal> paths;  //!< per-stack-path exclusive totals
};

/** Hardware-counter readings (perf_event_open), when available. */
struct HwCounterTotals
{
    bool available = false;
    std::string reason; //!< why not, when unavailable
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cacheMisses = 0;
};

/** Everything one profiled session collected. */
struct ProfileReport
{
    bool enabled = false;
    std::uint64_t wallNs = 0; //!< session wall time (steady clock)
    double tscGhz = 0.0;      //!< measured counter rate
    std::vector<ProfileWorker> workers;
    std::vector<PhaseTotal> phaseTotals; //!< summed across workers
    HwCounterTotals hw;
    std::string verdict; //!< one-line top-bottleneck statement

    /** Sum of a worker's attributed phase time plus its other bucket
     *  equals its span by construction; this is the cross-worker
     *  attributed total (excludes other). */
    std::uint64_t attributedNs() const;
};

/** Compute the top-bottleneck verdict line from the phase totals. */
std::string profileVerdict(const ProfileReport &report);

/** Write the report as a folded-stack file (flamegraph.pl /
 *  speedscope "collapsed stacks"): `role;phase;phase count` with the
 *  count in microseconds of exclusive host time. */
void writeFoldedStacks(std::ostream &os, const ProfileReport &report);

/** Everything drained from one registered thread's trace ring. */
struct ThreadTrace
{
    std::string role;      //!< registration label ("worker 3", ...)
    std::uint32_t tid = 0; //!< registration order, 0 = first
    std::uint64_t dropped = 0; //!< overflow-dropped record count
    std::vector<TraceRecord> records; //!< ring order (per-thread FIFO)
};

/** @return the current timestamp-counter value (monotonic ticks). */
std::uint64_t tscNow();

/** The process-wide registry of per-thread slots. */
class Recorder
{
  public:
    /** Inline so the dormant hot path never leaves the caller. */
    static Recorder &
    instance()
    {
        static Recorder recorder;
        return recorder;
    }

    /**
     * Arm a session whose t0 is @p anchor (its tsc and steady
     * readings). Call from the manager thread before worker threads
     * spawn. @param ring_kb per-thread trace ring size in KiB; 0
     * records phases only. @return false when another session is
     * already armed (one per process; the caller goes without).
     */
    bool begin(const ClockAnchor &anchor, std::uint32_t ring_kb);

    /** What a session recorded, in ns since its anchor. */
    struct Result
    {
        ProfileReport profile;
        std::vector<ThreadTrace> traces; //!< empty without rings
    };

    /**
     * Disarm, close every slot (worker threads must have joined; the
     * calling thread's own slot is closed in place) and convert ticks
     * to ns with the calibration measured since begin().
     */
    Result end();

    /** @return true while a session is armed (relaxed). */
    bool
    active() const
    {
        return epoch_.load(std::memory_order_relaxed) != 0;
    }

    /**
     * Bind the calling thread to a fresh slot under @p role. No-op
     * when no session is armed, or when the session belongs to
     * another run (util/run_token.hh). Safe to call on every run: the
     * binding of a previous session is replaced.
     */
    void registerThread(const std::string &role);

    /** Close the calling thread's slot and drop its binding. */
    void unregisterThread();

    /**
     * Move every visible ring record into the slots' accumulators.
     * Safe while producers run (SPSC protocol); frees ring space at
     * checkpoint boundaries. @return records moved by this call.
     */
    std::size_t collect();

    /** @return records dropped by full rings so far. */
    std::uint64_t droppedTotal() const;

    /**
     * (role, live phase) of every registered thread, in registration
     * order: "idle" when the thread holds no scope. Empty when no
     * session is armed. For the stall watchdog's dumps.
     */
    std::vector<std::pair<std::string, const char *>> livePhases() const;

    // -- Scope and emit internals (public for the inline hot path) --

    static constexpr std::size_t maxDepth = 8;  //!< nesting cap
    static constexpr std::size_t maxPaths = 64; //!< per-slot path table

    struct PathStat
    {
        std::uint64_t key = 0; //!< packed path, 0 = empty slot entry
        std::uint64_t ticks = 0;
        std::uint64_t count = 0;
    };

    /** One thread's recording state. Owner-thread writes only (the
     *  ring's consumer side excepted); padded so neighbouring slots
     *  never share a line. */
    struct alignas(64) Slot
    {
        struct Frame
        {
            std::uint8_t phase = 0;
            std::uint64_t startTicks = 0;
            std::uint64_t childTicks = 0;
        };

        std::string role;
        std::uint32_t tid = 0;
        std::uint64_t startTicks = 0;
        std::uint64_t endTicks = 0; //!< 0 = still open
        std::uint32_t depth = 0;
        std::uint64_t pathKey = 0; //!< packed phase path (8 bits/level)
        Frame stack[maxDepth];
        PathStat paths[maxPaths]; //!< open-addressed by path key
        std::uint64_t droppedPaths = 0;
        std::uint64_t truncated = 0;
        std::atomic<std::uint8_t> current{0}; //!< phase + 1; 0 = idle
        std::unique_ptr<TraceRing> ring; //!< only under --trace-out
        std::vector<TraceRecord> collected; //!< drained records (ticks)
    };

    /** @return the calling thread's slot for the current session, or
     *  nullptr when no session is armed / the thread is unbound. */
    Slot *boundSlot() const;

    /** Open a phase frame. @return the counter reading it used. */
    static std::uint64_t enter(Slot *slot, Phase p);

    /** Close the innermost frame. @return the counter reading. */
    static std::uint64_t exit(Slot *slot);

    /** Push one record stamped @p ticks to the calling thread's ring
     *  (no-op without a session, a binding or a ring). */
    void emitAt(std::uint64_t ticks, TraceType type, TraceCategory cat,
                const char *name, Tick cycle, std::int64_t arg = 0,
                std::int64_t arg2 = 0);

    /** A committed scope's span, pushed when the scope closes. */
    struct SpanInfo
    {
        const char *name = nullptr; //!< nullptr = not committed
        TraceCategory category = TraceCategory::Engine;
        Tick beginCycle = 0;
        Tick endCycle = 0;
        std::int64_t arg = 0;
        std::uint64_t minNs = 0; //!< shorter spans are dropped
    };

    /** Push @p span as a B/E pair stamped @p start / @p end. */
    void pushSpan(Slot *slot, std::uint64_t start, std::uint64_t end,
                  const SpanInfo &span);

  private:
    Recorder() = default;

    static void push(TraceRing &ring, std::uint64_t ticks,
                     TraceType type, TraceCategory cat,
                     const char *name, Tick cycle, std::int64_t arg,
                     std::int64_t arg2);

    std::atomic<std::uint64_t> epoch_{0}; //!< 0 = inactive
    std::uint64_t nextEpoch_ = 0;
    /** Run token that owns the session (0: not owned by any run —
     *  every thread may register, the single-tenant behavior). */
    std::uint64_t ownerToken_ = 0;
    std::uint32_t ringKb_ = 0; //!< 0 = no trace rings
    std::uint64_t t0Ticks_ = 0;
    std::uint64_t t0SteadyNs_ = 0;
    /** Coarse counter rate for the span flood filter only; timestamps
     *  use end()'s whole-session calibration. */
    double ticksPerNs_ = 1.0;

    mutable std::mutex registryMutex_; //!< guards slots_ (cold path)
    std::vector<std::unique_ptr<Slot>> slots_;
};

/**
 * RAII phase attribution, optionally exported as a trace span.
 * Constructing one when no session is armed costs a single relaxed
 * load; destruction then costs one branch.
 */
class Scope
{
  public:
    explicit Scope(Phase p)
    {
        Recorder &rec = Recorder::instance();
        if (!rec.active()) // inline early-out: the dormant-path cost
            return;
        slot_ = rec.boundSlot();
        if (slot_)
            startTicks_ = Recorder::enter(slot_, p);
    }

    ~Scope() { close(); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /**
     * Export this scope as a B/E span on the thread's track when it
     * closes, stamped by the same counter reads that time its phase.
     * Spans shorter than @p min_ns are dropped (a flood filter for
     * waits that return at once). No-op when the session records no
     * trace.
     */
    void
    commit(TraceCategory cat, const char *name, Tick begin_cycle,
           Tick end_cycle, std::int64_t arg = 0,
           std::uint64_t min_ns = 0)
    {
        if (!slot_ || !slot_->ring)
            return;
        span_ = {name, cat, begin_cycle, end_cycle, arg, min_ns};
    }

    /** Close now rather than at destruction (a span must end before
     *  a sibling one begins on the same track). Idempotent. */
    void
    close()
    {
        if (!slot_)
            return;
        const std::uint64_t end = Recorder::exit(slot_);
        if (span_.name)
            Recorder::instance().pushSpan(slot_, startTicks_, end, span_);
        slot_ = nullptr;
    }

  private:
    Recorder::Slot *slot_ = nullptr;
    std::uint64_t startTicks_ = 0;
    Recorder::SpanInfo span_;
};

/** Emit one record on the calling thread's track, stamped now. */
inline void
traceEmit(TraceType type, TraceCategory cat, const char *name,
          Tick cycle, std::int64_t arg = 0, std::int64_t arg2 = 0)
{
    Recorder &rec = Recorder::instance();
    if (rec.active()) // inline early-out: the dormant-path cost
        rec.emitAt(tscNow(), type, cat, name, cycle, arg, arg2);
}

/** Open a cross-call span on the calling thread's track. */
inline void
traceBegin(TraceCategory cat, const char *name, Tick cycle,
           std::int64_t arg = 0)
{
    traceEmit(TraceType::Begin, cat, name, cycle, arg);
}

/** Close the innermost span of @p name on this thread's track. */
inline void
traceEnd(TraceCategory cat, const char *name, Tick cycle,
         std::int64_t arg = 0)
{
    traceEmit(TraceType::End, cat, name, cycle, arg);
}

/** Emit a point event. */
inline void
traceInstant(TraceCategory cat, const char *name, Tick cycle,
             std::int64_t arg = 0, std::int64_t arg2 = 0)
{
    traceEmit(TraceType::Instant, cat, name, cycle, arg, arg2);
}

/** Emit a counter sample. */
inline void
traceCounter(TraceCategory cat, const char *name, Tick cycle,
             std::int64_t value)
{
    traceEmit(TraceType::Counter, cat, name, cycle, value);
}

} // namespace slacksim::obs

#endif // SLACKSIM_OBS_RECORDER_HH
