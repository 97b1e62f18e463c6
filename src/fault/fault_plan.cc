/**
 * @file
 * FaultPlan implementation.
 */

#include "fault/fault_plan.hh"

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <thread>

#include "util/checksum.hh"
#include "util/logging.hh"

namespace slacksim {
namespace fault {

namespace {

struct KindEntry
{
    const char *name;
    FaultKind kind;
    const char *site; //!< required trigger site token
};

constexpr KindEntry kindTable[] = {
    {"snapshot-corrupt", FaultKind::SnapshotCorrupt, "ckpt"},
    {"snapshot-truncate", FaultKind::SnapshotTruncate, "ckpt"},
    {"spurious-rollback", FaultKind::SpuriousRollback, "ckpt"},
    {"child-kill", FaultKind::ChildKill, "ckpt"},
    {"child-exit", FaultKind::ChildExit, "ckpt"},
    {"worker-stall", FaultKind::WorkerStall, "cycle"},
    {"backpressure", FaultKind::Backpressure, "cycle"},
    {"io-fail", FaultKind::IoFail, "write"},
    {"job-crash", FaultKind::JobCrash, "cycle"},
    {"job-hang", FaultKind::JobHang, "cycle"},
    {"daemon-kill-window", FaultKind::DaemonKillWindow, "start"},
};

std::uint64_t
parseSpecUint(const std::string &text, const std::string &field)
{
    if (text.empty())
        SLACKSIM_FATAL("fault-spec: empty ", field, " field");
    char *end = nullptr;
    const std::uint64_t v = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || text[0] == '-')
        SLACKSIM_FATAL("fault-spec: bad ", field, " '", text, "'");
    return v;
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    for (const auto &e : kindTable) {
        if (e.kind == kind)
            return e.name;
    }
    return "unknown";
}

FaultSpec
FaultPlan::parseSpec(const std::string &text)
{
    const auto at = text.find('@');
    if (at == std::string::npos) {
        SLACKSIM_FATAL("fault-spec '", text,
                       "' is not <kind>@<site>:<trigger>[:args]");
    }
    const std::string kind_name = text.substr(0, at);
    const KindEntry *entry = nullptr;
    for (const auto &e : kindTable) {
        if (kind_name == e.name) {
            entry = &e;
            break;
        }
    }
    if (!entry)
        SLACKSIM_FATAL("fault-spec: unknown fault kind '", kind_name,
                       "'");

    // Split the trigger part on ':' into site, trigger and args.
    std::vector<std::string> parts;
    std::string rest = text.substr(at + 1);
    for (std::size_t start = 0; start <= rest.size();) {
        const auto colon = rest.find(':', start);
        if (colon == std::string::npos) {
            parts.push_back(rest.substr(start));
            break;
        }
        parts.push_back(rest.substr(start, colon - start));
        start = colon + 1;
    }
    if (parts.size() < 2 || parts[0] != entry->site) {
        SLACKSIM_FATAL("fault-spec '", text, "': ", entry->name,
                       " needs trigger site '", entry->site, ":N'");
    }

    FaultSpec spec;
    spec.kind = entry->kind;
    spec.trigger = parseSpecUint(parts[1], "trigger");
    if (entry->kind == FaultKind::WorkerStall) {
        if (parts.size() < 3) {
            SLACKSIM_FATAL("fault-spec '", text,
                           "': worker-stall needs cycle:N:MS[:CORE]");
        }
        spec.arg0 = parseSpecUint(parts[2], "stall ms");
        spec.arg1 =
            parts.size() > 3 ? parseSpecUint(parts[3], "core") : 0;
    } else if (entry->kind == FaultKind::Backpressure) {
        if (parts.size() < 3) {
            SLACKSIM_FATAL("fault-spec '", text,
                           "': backpressure needs cycle:N:COUNT");
        }
        spec.arg0 = parseSpecUint(parts[2], "round count");
        // Stay well under the engines' livelock panic thresholds: the
        // burst must be recoverable, not a disguised hang.
        if (spec.arg0 < 1 || spec.arg0 > 50000) {
            SLACKSIM_FATAL("fault-spec '", text,
                           "': backpressure COUNT must be in "
                           "[1, 50000]");
        }
    } else if (entry->kind == FaultKind::JobHang) {
        // Default wedge: long enough that only the supervisor's
        // timeout/kill escalation can end the job.
        spec.arg0 = parts.size() > 2
                        ? parseSpecUint(parts[2], "hang ms")
                        : 600000;
    } else if (parts.size() > 2) {
        SLACKSIM_FATAL("fault-spec '", text, "': trailing args");
    }
    return spec;
}

std::vector<FaultSpec>
FaultPlan::parseSpecList(const std::string &text)
{
    std::vector<FaultSpec> specs;
    std::string cur;
    for (std::size_t i = 0; i <= text.size(); ++i) {
        if (i == text.size() || text[i] == ',' || text[i] == ';') {
            if (!cur.empty())
                specs.push_back(parseSpec(cur));
            cur.clear();
        } else {
            cur.push_back(text[i]);
        }
    }
    return specs;
}

FaultPlan::FaultPlan(std::vector<FaultSpec> specs, std::uint64_t seed)
    : specs_(std::move(specs)), seed_(seed), rng_(seed)
{
    for (const FaultSpec &spec : specs_) {
        slots_.push_back({spec, false});
        switch (spec.kind) {
          case FaultKind::WorkerStall:
            pendingStalls_.fetch_add(1, std::memory_order_relaxed);
            break;
          case FaultKind::Backpressure:
            pendingBackpressure_.fetch_add(1,
                                           std::memory_order_relaxed);
            break;
          case FaultKind::IoFail:
            pendingIoFails_.fetch_add(1, std::memory_order_relaxed);
            break;
          case FaultKind::JobCrash:
          case FaultKind::JobHang:
            pendingServeFaults_.fetch_add(1,
                                          std::memory_order_relaxed);
            break;
          default:
            break;
        }
    }
}

void
FaultPlan::install()
{
    if (activePlan_ != nullptr && activePlan_ != this) {
        SLACKSIM_FATAL("a FaultPlan is already installed on this "
                       "thread; fault-injected runs cannot nest");
    }
    activePlan_ = this;
}

void
FaultPlan::uninstall()
{
    if (activePlan_ == this)
        activePlan_ = nullptr;
}

void
FaultPlan::record(const Slot &slot, Tick cycle, std::string detail)
{
    InjectionRecord rec;
    rec.kind = slot.spec.kind;
    rec.trigger = slot.spec.trigger;
    rec.cycle = cycle;
    rec.detail = std::move(detail);
    records_.push_back(std::move(rec));
    SLACKSIM_WARN("fault injected: ", faultKindName(rec.kind), "@",
                  rec.trigger, " cycle=", cycle, " (",
                  records_.back().detail, ")");
}

bool
FaultPlan::fireSnapshotFault(std::uint64_t ckpt_ordinal,
                             std::vector<std::uint8_t> &arena,
                             Tick now)
{
    std::lock_guard<std::mutex> lock(mu_);
    bool damaged = false;
    for (Slot &slot : slots_) {
        if (slot.fired || slot.spec.trigger != ckpt_ordinal)
            continue;
        if (slot.spec.kind == FaultKind::SnapshotCorrupt) {
            slot.fired = true;
            if (arena.empty())
                continue;
            const std::size_t byte =
                static_cast<std::size_t>(rng_.below(arena.size()));
            const std::uint8_t bit =
                static_cast<std::uint8_t>(1u << rng_.below(8));
            arena[byte] ^= bit;
            record(slot, now,
                   "bit-flip at byte " + std::to_string(byte) +
                       " of " + std::to_string(arena.size()));
            damaged = true;
        } else if (slot.spec.kind == FaultKind::SnapshotTruncate) {
            slot.fired = true;
            if (arena.empty())
                continue;
            // Cut somewhere in the arena (always at least one byte).
            const std::size_t keep =
                static_cast<std::size_t>(rng_.below(arena.size()));
            record(slot, now,
                   "truncated " + std::to_string(arena.size()) +
                       " -> " + std::to_string(keep) + " bytes");
            arena.resize(keep);
            damaged = true;
        }
    }
    return damaged;
}

bool
FaultPlan::fireSpuriousRollback(std::uint64_t ckpt_ordinal, Tick now)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (Slot &slot : slots_) {
        if (slot.fired ||
            slot.spec.kind != FaultKind::SpuriousRollback ||
            slot.spec.trigger != ckpt_ordinal) {
            continue;
        }
        slot.fired = true;
        record(slot, now, "forced rollback request");
        return true;
    }
    return false;
}

FaultPlan::ChildFault
FaultPlan::fireChildFault(std::uint64_t ckpt_ordinal, Tick now)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (Slot &slot : slots_) {
        if (slot.fired || slot.spec.trigger != ckpt_ordinal)
            continue;
        if (slot.spec.kind == FaultKind::ChildKill) {
            slot.fired = true;
            record(slot, now, "child SIGKILL after fork");
            return ChildFault::Kill;
        }
        if (slot.spec.kind == FaultKind::ChildExit) {
            slot.fired = true;
            record(slot, now, "child nonzero _exit after fork");
            return ChildFault::Exit;
        }
    }
    return ChildFault::None;
}

std::uint64_t
FaultPlan::fireWorkerStall(CoreId core, Tick local)
{
    if (pendingStalls_.load(std::memory_order_relaxed) == 0)
        return 0;
    std::lock_guard<std::mutex> lock(mu_);
    for (Slot &slot : slots_) {
        if (slot.fired || slot.spec.kind != FaultKind::WorkerStall)
            continue;
        if (slot.spec.arg1 != core || local < slot.spec.trigger)
            continue;
        slot.fired = true;
        pendingStalls_.fetch_sub(1, std::memory_order_relaxed);
        record(slot, local,
               "core " + std::to_string(core) + " stalled " +
                   std::to_string(slot.spec.arg0) + " ms");
        return slot.spec.arg0;
    }
    return 0;
}

std::uint64_t
FaultPlan::fireBackpressure(Tick global)
{
    if (pendingBackpressure_.load(std::memory_order_relaxed) == 0)
        return 0;
    std::lock_guard<std::mutex> lock(mu_);
    for (Slot &slot : slots_) {
        if (slot.fired || slot.spec.kind != FaultKind::Backpressure)
            continue;
        if (global < slot.spec.trigger)
            continue;
        slot.fired = true;
        pendingBackpressure_.fetch_sub(1, std::memory_order_relaxed);
        record(slot, global,
               "manager skipping " + std::to_string(slot.spec.arg0) +
                   " service rounds");
        return slot.spec.arg0;
    }
    return 0;
}

bool
FaultPlan::fireIoFail(const char *what)
{
    if (pendingIoFails_.load(std::memory_order_relaxed) == 0)
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t ordinal = ++ioOpens_;
    for (Slot &slot : slots_) {
        if (slot.fired || slot.spec.kind != FaultKind::IoFail)
            continue;
        if (slot.spec.trigger != ordinal)
            continue;
        slot.fired = true;
        pendingIoFails_.fetch_sub(1, std::memory_order_relaxed);
        record(slot, 0,
               std::string("transient open failure for ") + what);
        return true;
    }
    return false;
}

void
FaultPlan::fireServeFault(Tick global)
{
    if (pendingServeFaults_.load(std::memory_order_relaxed) == 0)
        return;
    std::uint64_t hang_ms = 0;
    bool crash = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (Slot &slot : slots_) {
            if (slot.fired || global < slot.spec.trigger)
                continue;
            if (slot.spec.kind == FaultKind::JobCrash) {
                slot.fired = true;
                pendingServeFaults_.fetch_sub(
                    1, std::memory_order_relaxed);
                record(slot, global, "raising SIGSEGV in this job");
                crash = true;
                break;
            }
            if (slot.spec.kind == FaultKind::JobHang) {
                slot.fired = true;
                pendingServeFaults_.fetch_sub(
                    1, std::memory_order_relaxed);
                record(slot, global,
                       "manager wedged for " +
                           std::to_string(slot.spec.arg0) + " ms");
                hang_ms = slot.spec.arg0;
                break;
            }
        }
    }
    // Crash and hang happen outside the plan mutex: the segfault must
    // not die holding a lock a sibling hook could want, and the wedge
    // must not block worker-stall hooks on other threads.
    if (crash)
        std::raise(SIGSEGV);
    if (hang_ms)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(hang_ms));
}

bool
FaultPlan::fireDaemonKill(std::uint64_t start_ordinal)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (Slot &slot : slots_) {
        if (slot.fired ||
            slot.spec.kind != FaultKind::DaemonKillWindow ||
            start_ordinal < slot.spec.trigger) {
            continue;
        }
        slot.fired = true;
        record(slot, 0,
               "daemon self-SIGKILL at job start " +
                   std::to_string(start_ordinal));
        return true;
    }
    return false;
}

void
FaultPlan::markLastHandled(const std::string &handled_by,
                           const char *replacing)
{
    // Attribute the most recent record still awaiting a handler, not
    // records_.back(): a snapshot fault is handled at rollback time,
    // by which point a later injection (e.g. the spurious rollback
    // that triggered the restore) may already sit behind it.
    std::lock_guard<std::mutex> lock(mu_);
    if (replacing) {
        for (auto it = records_.rbegin(); it != records_.rend();
             ++it) {
            if (it->handledBy == replacing) {
                it->handledBy = handled_by;
                return;
            }
        }
    }
    for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
        if (it->handledBy.empty()) {
            it->handledBy = handled_by;
            return;
        }
    }
}

std::vector<InjectionRecord>
FaultPlan::records() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return records_;
}

std::vector<FaultSpec>
resolveFaultSpecs(const std::vector<std::string> &config_specs,
                  std::uint64_t config_seed, std::uint64_t *seed_out)
{
    std::vector<FaultSpec> specs;
    for (const std::string &text : config_specs) {
        for (const FaultSpec &spec :
             FaultPlan::parseSpecList(text)) {
            specs.push_back(spec);
        }
    }
    std::uint64_t seed = config_seed;
    if (specs.empty()) {
        // Environment fallback: the CI chaos matrix injects into
        // unmodified binaries (gtest suites, examples) this way.
        if (const char *env = std::getenv("SLACKSIM_FAULT_SPEC"))
            specs = FaultPlan::parseSpecList(env);
        if (const char *env = std::getenv("SLACKSIM_FAULT_SEED")) {
            char *end = nullptr;
            const std::uint64_t v = std::strtoull(env, &end, 10);
            if (end != env && *end == '\0')
                seed = v;
        }
    }
    if (seed_out)
        *seed_out = seed;
    return specs;
}

} // namespace fault
} // namespace slacksim
