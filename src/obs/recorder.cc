/**
 * @file
 * Recorder implementation: session lifecycle, slot aggregation, the
 * tick-to-ns calibration, the folded-stack exporter and the verdict
 * line.
 */

#include "obs/recorder.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ostream>

#include "util/run_token.hh"

namespace slacksim::obs {

namespace {

/** The calling thread's binding to the current session. */
thread_local struct
{
    std::uint64_t epoch = 0; //!< session the binding belongs to
    Recorder::Slot *slot = nullptr;
} boundSlotTls;

std::uint64_t
steadyNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Mix a packed path key into a table index. */
inline std::size_t
pathHash(std::uint64_t key)
{
    key *= 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(key >> 58);
}

/** Decode a packed path key into "outer;inner" phase names. */
std::string
pathName(std::uint64_t key)
{
    std::string name;
    for (std::size_t level = 0; level < Recorder::maxDepth; ++level) {
        const std::uint8_t v = static_cast<std::uint8_t>(key >> (8 * level));
        if (v == 0)
            break;
        if (!name.empty())
            name += ';';
        name += phaseName(static_cast<Phase>(v - 1));
    }
    return name;
}

/** Leaf (innermost) phase of a packed path key. */
Phase
pathLeaf(std::uint64_t key)
{
    std::uint8_t leaf = static_cast<std::uint8_t>(key);
    for (std::size_t level = 1; level < Recorder::maxDepth; ++level) {
        const std::uint8_t v = static_cast<std::uint8_t>(key >> (8 * level));
        if (v == 0)
            break;
        leaf = v;
    }
    return static_cast<Phase>(leaf - 1);
}

/** Record @p ticks of exclusive time under @p key in a slot's table. */
void
addPath(Recorder::Slot *slot, std::uint64_t key, std::uint64_t ticks)
{
    std::size_t idx = pathHash(key) & (Recorder::maxPaths - 1);
    for (std::size_t probe = 0; probe < Recorder::maxPaths; ++probe) {
        Recorder::PathStat &p = slot->paths[idx];
        if (p.key == key) {
            p.ticks += ticks;
            ++p.count;
            return;
        }
        if (p.key == 0) {
            p.key = key;
            p.ticks = ticks;
            p.count = 1;
            return;
        }
        idx = (idx + 1) & (Recorder::maxPaths - 1);
    }
    ++slot->droppedPaths;
}

/** Close the innermost frame as if its scope exited at @p now. */
void
exitAt(Recorder::Slot *slot, std::uint64_t now)
{
    if (slot->depth == 0)
        return; // unbalanced exit: tolerate rather than corrupt
    if (slot->depth > Recorder::maxDepth) {
        --slot->depth;
        return;
    }
    --slot->depth;
    Recorder::Slot::Frame &f = slot->stack[slot->depth];
    const std::uint64_t total =
        now >= f.startTicks ? now - f.startTicks : 0;
    const std::uint64_t excl =
        total >= f.childTicks ? total - f.childTicks : 0;
    addPath(slot, slot->pathKey, excl);
    slot->pathKey &= ~(std::uint64_t{0xff} << (8 * slot->depth));
    if (slot->depth > 0) {
        slot->stack[slot->depth - 1].childTicks += total;
        slot->current.store(
            static_cast<std::uint8_t>(
                slot->stack[slot->depth - 1].phase + 1),
            std::memory_order_relaxed);
    } else {
        slot->current.store(0, std::memory_order_relaxed);
    }
}

/** Close a slot at @p now, unwinding any frames a panic left open so
 *  their time is counted. */
void
closeSlot(Recorder::Slot &slot, std::uint64_t now)
{
    if (slot.endTicks != 0)
        return;
    while (slot.depth > 0)
        exitAt(&slot, now);
    slot.endTicks = now;
    slot.current.store(0, std::memory_order_relaxed);
}

/** Coarse counter rate for the span flood filter: a 20 µs window is
 *  plenty for a threshold that only separates futex misses from
 *  real parks. */
double
estimateTicksPerNs()
{
    const std::uint64_t s0 = steadyNowNs();
    const std::uint64_t t0 = tscNow();
    std::uint64_t s1 = s0;
    while (s1 - s0 < 20000)
        s1 = steadyNowNs();
    const std::uint64_t t1 = tscNow();
    return static_cast<double>(t1 - t0) / static_cast<double>(s1 - s0);
}

} // namespace

const char *
traceCategoryName(TraceCategory cat)
{
    switch (cat) {
      case TraceCategory::Engine:
        return "engine";
      case TraceCategory::Core:
        return "core";
      case TraceCategory::Manager:
        return "manager";
      case TraceCategory::Bus:
        return "bus";
      case TraceCategory::Map:
        return "map";
      case TraceCategory::Adaptive:
        return "adaptive";
      case TraceCategory::Checkpoint:
        return "checkpoint";
    }
    return "unknown";
}

std::uint64_t
tscNow()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_ia32_rdtsc();
#elif defined(__aarch64__)
    std::uint64_t v;
    asm volatile("mrs %0, cntvct_el0" : "=r"(v));
    return v;
#else
    return steadyNowNs();
#endif
}

const char *
phaseName(Phase p)
{
    switch (p) {
      case Phase::Simulate:
        return "simulate";
      case Phase::QueuePush:
        return "queue-push";
      case Phase::WaitSlack:
        return "wait-for-slack";
      case Phase::WaitInbound:
        return "wait-inbound";
      case Phase::Barrier:
        return "barrier";
      case Phase::Checkpoint:
        return "checkpoint";
      case Phase::RollbackReplay:
        return "rollback-replay";
      case Phase::Drain:
        return "drain";
      case Phase::PacerEpoch:
        return "pacer-epoch";
      case Phase::Sample:
        return "sample";
    }
    return "unknown";
}

std::uint64_t
ProfileReport::attributedNs() const
{
    std::uint64_t sum = 0;
    for (const PhaseTotal &t : phaseTotals) {
        if (t.name != "other")
            sum += t.ns;
    }
    return sum;
}

bool
Recorder::begin(const ClockAnchor &anchor, std::uint32_t ring_kb)
{
    std::lock_guard<std::mutex> lk(registryMutex_);
    if (active())
        return false; // one session per process
    slots_.clear();
    ringKb_ = ring_kb;
    ownerToken_ = currentRunToken();
    t0Ticks_ = anchor.tsc;
    t0SteadyNs_ = anchor.steadyNs;
    ticksPerNs_ = ring_kb != 0 ? estimateTicksPerNs() : 1.0;
    epoch_.store(++nextEpoch_, std::memory_order_release);
    return true;
}

void
Recorder::registerThread(const std::string &role)
{
    const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
    if (epoch == 0)
        return;
    std::lock_guard<std::mutex> lk(registryMutex_);
    // Multi-tenant gate: a concurrent run that lost the begin() race
    // must not leak its threads into the owning run's session. Owner
    // token 0 = the session was opened outside any run (single-tenant
    // tools, tests) and accepts every thread.
    if (ownerToken_ != 0 && currentRunToken() != ownerToken_)
        return;
    auto slot = std::make_unique<Slot>();
    slot->role = role;
    slot->tid = static_cast<std::uint32_t>(slots_.size());
    slot->startTicks = tscNow();
    if (ringKb_ != 0) {
        slot->ring = std::make_unique<TraceRing>(std::max<std::size_t>(
            64, std::size_t{ringKb_} * 1024 / sizeof(TraceRecord)));
    }
    boundSlotTls.epoch = epoch;
    boundSlotTls.slot = slot.get();
    slots_.push_back(std::move(slot));
}

void
Recorder::unregisterThread()
{
    Slot *slot = boundSlot();
    boundSlotTls.slot = nullptr;
    boundSlotTls.epoch = 0;
    if (slot)
        closeSlot(*slot, tscNow());
}

Recorder::Slot *
Recorder::boundSlot() const
{
    const std::uint64_t e = epoch_.load(std::memory_order_relaxed);
    if (e == 0 || boundSlotTls.epoch != e)
        return nullptr;
    return boundSlotTls.slot;
}

std::uint64_t
Recorder::enter(Slot *slot, Phase p)
{
    const std::uint64_t now = tscNow();
    if (slot->depth >= maxDepth) {
        ++slot->truncated;
        ++slot->depth;
        return now;
    }
    Slot::Frame &f = slot->stack[slot->depth];
    f.phase = static_cast<std::uint8_t>(p);
    f.startTicks = now;
    f.childTicks = 0;
    slot->pathKey |= (std::uint64_t{f.phase} + 1) << (8 * slot->depth);
    ++slot->depth;
    slot->current.store(static_cast<std::uint8_t>(f.phase + 1),
                        std::memory_order_relaxed);
    return now;
}

std::uint64_t
Recorder::exit(Slot *slot)
{
    const std::uint64_t now = tscNow();
    exitAt(slot, now);
    return now;
}

void
Recorder::push(TraceRing &ring, std::uint64_t ticks, TraceType type,
               TraceCategory cat, const char *name, Tick cycle,
               std::int64_t arg, std::int64_t arg2)
{
    TraceRecord rec;
    rec.wallNs = ticks;
    rec.cycle = cycle;
    rec.name = name;
    rec.arg = arg;
    rec.arg2 = arg2;
    rec.type = type;
    rec.category = cat;
    ring.push(rec);
}

void
Recorder::emitAt(std::uint64_t ticks, TraceType type, TraceCategory cat,
                 const char *name, Tick cycle, std::int64_t arg,
                 std::int64_t arg2)
{
    Slot *slot = boundSlot();
    if (slot && slot->ring)
        push(*slot->ring, ticks, type, cat, name, cycle, arg, arg2);
}

void
Recorder::pushSpan(Slot *slot, std::uint64_t start, std::uint64_t end,
                   const SpanInfo &span)
{
    if (span.minNs != 0 &&
        static_cast<double>(end - start) <
            static_cast<double>(span.minNs) * ticksPerNs_) {
        return;
    }
    push(*slot->ring, start, TraceType::Begin, span.category, span.name,
         span.beginCycle, 0, 0);
    push(*slot->ring, end, TraceType::End, span.category, span.name,
         span.endCycle, span.arg, 0);
}

std::size_t
Recorder::collect()
{
    std::lock_guard<std::mutex> lk(registryMutex_);
    std::size_t moved = 0;
    for (auto &slot : slots_) {
        if (slot->ring)
            moved += slot->ring->drain(slot->collected);
    }
    return moved;
}

std::uint64_t
Recorder::droppedTotal() const
{
    std::lock_guard<std::mutex> lk(registryMutex_);
    std::uint64_t dropped = 0;
    for (const auto &slot : slots_) {
        if (slot->ring)
            dropped += slot->ring->dropped();
    }
    return dropped;
}

std::vector<std::pair<std::string, const char *>>
Recorder::livePhases() const
{
    std::vector<std::pair<std::string, const char *>> out;
    if (!active())
        return out;
    std::lock_guard<std::mutex> lk(registryMutex_);
    for (const auto &slot : slots_) {
        const std::uint8_t cur =
            slot->current.load(std::memory_order_relaxed);
        out.emplace_back(slot->role,
                         cur == 0 ? "idle"
                                  : phaseName(static_cast<Phase>(cur - 1)));
    }
    return out;
}

Recorder::Result
Recorder::end()
{
    Result result;
    // Disarm the hot path first so no new scopes open while slots are
    // aggregated; worker threads have already joined (engine
    // contract), so only the calling thread's slot can still be open.
    const std::uint64_t now_ticks = tscNow();
    const std::uint64_t now_ns = steadyNowNs();
    if (!active())
        return result;
    epoch_.store(0, std::memory_order_release);
    boundSlotTls.slot = nullptr;
    boundSlotTls.epoch = 0;

    std::lock_guard<std::mutex> lk(registryMutex_);
    const std::uint64_t wall_ns =
        now_ns > t0SteadyNs_ ? now_ns - t0SteadyNs_ : 0;
    const std::uint64_t dticks =
        now_ticks > t0Ticks_ ? now_ticks - t0Ticks_ : 1;
    // Post-hoc calibration across the whole session: far more stable
    // than a warmup spin, and it is exactly the conversion that makes
    // "phase totals sum to wall time" checkable against steady_clock.
    const double ns_per_tick =
        static_cast<double>(wall_ns) / static_cast<double>(dticks);
    const auto to_ns = [ns_per_tick](std::uint64_t ticks) {
        return static_cast<std::uint64_t>(
            static_cast<double>(ticks) * ns_per_tick);
    };
    ProfileReport &report = result.profile;
    report.enabled = true;
    report.wallNs = wall_ns;
    report.tscGhz = ns_per_tick > 0.0 ? 1.0 / ns_per_tick : 0.0;

    std::uint64_t phase_ticks[numPhases] = {};
    std::uint64_t phase_count[numPhases] = {};
    std::uint64_t other_ns = 0;
    for (const auto &slot_ptr : slots_) {
        Slot &slot = *slot_ptr;
        closeSlot(slot, now_ticks);

        ProfileWorker w;
        w.role = slot.role;
        w.tid = slot.tid;
        const std::uint64_t span_ticks =
            slot.endTicks > slot.startTicks
                ? slot.endTicks - slot.startTicks
                : 0;
        w.spanNs = to_ns(span_ticks);
        w.truncated = slot.truncated;
        w.droppedPaths = slot.droppedPaths;

        std::uint64_t w_phase_ticks[numPhases] = {};
        std::uint64_t w_phase_count[numPhases] = {};
        std::vector<const PathStat *> used;
        for (const PathStat &p : slot.paths) {
            if (p.key != 0)
                used.push_back(&p);
        }
        std::sort(used.begin(), used.end(),
                  [](const PathStat *a, const PathStat *b) {
                      return a->key < b->key;
                  });
        for (const PathStat *p : used) {
            const std::size_t leaf =
                static_cast<std::size_t>(pathLeaf(p->key));
            w_phase_ticks[leaf] += p->ticks;
            w_phase_count[leaf] += p->count;
            w.paths.push_back({pathName(p->key), to_ns(p->ticks),
                               p->count});
        }
        // Sum attributed time over the *converted* per-phase values so
        // attributed + other == span holds exactly in ns, not just in
        // ticks (independent floor conversions would drift a few ns).
        std::uint64_t attributed_ns = 0;
        for (std::size_t i = 0; i < numPhases; ++i) {
            const std::uint64_t ns = to_ns(w_phase_ticks[i]);
            w.phases.push_back({phaseName(static_cast<Phase>(i)), ns,
                                w_phase_count[i]});
            attributed_ns += ns;
            phase_ticks[i] += w_phase_ticks[i];
            phase_count[i] += w_phase_count[i];
        }
        w.otherNs =
            w.spanNs > attributed_ns ? w.spanNs - attributed_ns : 0;
        other_ns += w.otherNs;
        report.workers.push_back(std::move(w));

        if (!slot.ring)
            continue;
        slot.ring->drain(slot.collected);
        ThreadTrace t;
        t.role = slot.role;
        t.tid = slot.tid;
        t.dropped = slot.ring->dropped();
        t.records = std::move(slot.collected);
        for (TraceRecord &rec : t.records) {
            rec.wallNs =
                rec.wallNs > t0Ticks_ ? to_ns(rec.wallNs - t0Ticks_) : 0;
        }
        result.traces.push_back(std::move(t));
    }
    for (std::size_t i = 0; i < numPhases; ++i) {
        report.phaseTotals.push_back({phaseName(static_cast<Phase>(i)),
                                      to_ns(phase_ticks[i]),
                                      phase_count[i]});
    }
    report.phaseTotals.push_back({"other", other_ns, 0});
    report.verdict = profileVerdict(report);
    slots_.clear();
    return result;
}

std::string
profileVerdict(const ProfileReport &report)
{
    std::uint64_t total = 0;
    for (const PhaseTotal &t : report.phaseTotals)
        total += t.ns;
    if (total == 0)
        return "no host time attributed";

    // Rank by time; "other" competes like any phase so an untracked
    // sink is called out instead of hidden.
    std::vector<const PhaseTotal *> ranked;
    for (const PhaseTotal &t : report.phaseTotals)
        ranked.push_back(&t);
    std::sort(ranked.begin(), ranked.end(),
              [](const PhaseTotal *a, const PhaseTotal *b) {
                  return a->ns > b->ns;
              });
    const auto pct = [total](std::uint64_t ns) {
        return 100.0 * static_cast<double>(ns) /
               static_cast<double>(total);
    };
    char buf[160];
    const PhaseTotal &top = *ranked[0];
    const PhaseTotal &next = *ranked[1];
    if (top.name == "simulate") {
        std::snprintf(buf, sizeof(buf),
                      "simulate-bound: %.1f%% of host time in "
                      "simulate (next: %s %.1f%%)",
                      pct(top.ns), next.name.c_str(), pct(next.ns));
    } else {
        std::snprintf(buf, sizeof(buf),
                      "bottleneck: %s %.1f%% of host time "
                      "(simulate %.1f%%)",
                      top.name.c_str(), pct(top.ns),
                      pct([&report] {
                          for (const PhaseTotal &t : report.phaseTotals)
                              if (t.name == "simulate")
                                  return t.ns;
                          return std::uint64_t{0};
                      }()));
    }
    return buf;
}

void
writeFoldedStacks(std::ostream &os, const ProfileReport &report)
{
    // Collapsed-stack format: frames joined by ';', one trailing
    // space, an integer count. flamegraph.pl and speedscope both
    // split on the *last* space, so spaces inside role names are
    // fine; ';' inside a role would split a frame, so it is mapped.
    const auto safeRole = [](std::string role) {
        std::replace(role.begin(), role.end(), ';', ':');
        return role;
    };
    for (const ProfileWorker &w : report.workers) {
        const std::string role = safeRole(w.role);
        for (const PhaseTotal &p : w.paths) {
            if (p.ns / 1000 == 0)
                continue; // sub-microsecond paths: noise
            os << role << ';' << p.name << ' ' << p.ns / 1000 << '\n';
        }
        if (w.otherNs / 1000 != 0)
            os << role << ";other " << w.otherNs / 1000 << '\n';
    }
}

} // namespace slacksim::obs
