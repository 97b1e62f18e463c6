/**
 * @file
 * StallWatchdog implementation.
 */

#include "obs/flight_recorder.hh"

#include <algorithm>
#include <csignal>
#include <cstring>
#include <sstream>

#include <unistd.h>

#include "obs/recorder.hh"
#include "util/logging.hh"

namespace slacksim {
namespace obs {

namespace {

/**
 * The single watchdog the fatal-signal path reports through. Only one
 * engine run is live at a time; a second concurrent watchdog simply
 * skips signal installation.
 */
std::atomic<StallWatchdog *> activeWatchdog{nullptr};

struct sigaction oldAbrt;
struct sigaction oldSegv;

} // namespace

std::vector<FlightRecorder::Snapshot>
FlightRecorder::recent(std::size_t max) const
{
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t n = std::min<std::uint64_t>(
        {head, capacity, static_cast<std::uint64_t>(max)});
    std::vector<Snapshot> out;
    out.reserve(n);
    for (std::uint64_t seq = head - n + 1; seq <= head && n != 0; ++seq) {
        const Entry &e = ring_[seq % capacity];
        Snapshot s;
        s.seq = e.seq.load(std::memory_order_relaxed);
        s.cycle = e.cycle.load(std::memory_order_relaxed);
        s.name = e.name.load(std::memory_order_relaxed);
        if (s.name != nullptr)
            out.push_back(s);
    }
    return out;
}

StallWatchdog::StallWatchdog(std::uint64_t stall_ms)
    : stallMs_(stall_ms)
{
}

StallWatchdog::~StallWatchdog()
{
    stop();
}

std::size_t
StallWatchdog::addWorker(std::string name,
                         const std::atomic<Tick> *clock,
                         const std::atomic<bool> *finished,
                         bool stall_eligible)
{
    SLACKSIM_ASSERT(!started_, "addWorker after start()");
    auto w = std::make_unique<Worker>();
    w->name = std::move(name);
    w->clock = clock;
    w->finished = finished;
    w->stallEligible = stall_eligible;
    workers_.push_back(std::move(w));
    return workers_.size() - 1;
}

void
StallWatchdog::setProgressProbe(std::function<std::string()> probe)
{
    std::lock_guard<std::mutex> lk(mutex_);
    probe_ = std::move(probe);
}

void
StallWatchdog::start()
{
    SLACKSIM_ASSERT(!started_, "watchdog already started");
    started_ = true;
    stopping_ = false;
    t0_ = std::chrono::steady_clock::now();
    for (auto &w : workers_) {
        w->lastClock = w->clock ? w->clock->load(std::memory_order_relaxed)
                                : 0;
        w->lastSeq = w->recorder.headSeq();
        w->lastChangeMs = 0;
    }
    installSignalHandlers();
    thread_ = std::thread([this] { threadMain(); });
}

void
StallWatchdog::stop()
{
    if (!started_)
        return;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
    removeSignalHandlers();
    started_ = false;
}

std::uint64_t
StallWatchdog::nowMs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
}

void
StallWatchdog::threadMain()
{
    // Poll a few times per stall window so detection latency stays a
    // fraction of the threshold without burning a core.
    const auto poll = std::chrono::milliseconds(
        std::clamp<std::uint64_t>(stallMs_ / 4, 10, 250));
    // Re-arm per episode: one dump when a stall is detected, the next
    // only after the stalled set changes or progress resumes.
    bool dumped = false;
    std::unique_lock<std::mutex> lk(mutex_);
    while (!stopping_) {
        cv_.wait_for(lk, poll);
        if (stopping_)
            break;
        lk.unlock();

        const std::uint64_t now = nowMs();
        std::vector<bool> stalled(workers_.size(), false);
        bool anyStalled = false;
        for (std::size_t i = 0; i < workers_.size(); ++i) {
            Worker &w = *workers_[i];
            const Tick clock =
                w.clock ? w.clock->load(std::memory_order_relaxed) : 0;
            const std::uint64_t seq = w.recorder.headSeq();
            if (clock != w.lastClock || seq != w.lastSeq) {
                w.lastClock = clock;
                w.lastSeq = seq;
                w.lastChangeMs = now;
            }
            const bool done =
                w.finished &&
                w.finished->load(std::memory_order_relaxed);
            if (w.stallEligible && !done &&
                now - w.lastChangeMs >= stallMs_) {
                stalled[i] = true;
                anyStalled = true;
            }
        }

        if (anyStalled && !dumped) {
            emitDump("stall", stalled);
            dumped = true;
        } else if (!anyStalled) {
            dumped = false;
        }

        // Keep the crash snapshot fresh even without a stall so a
        // fatal signal always has recent state to report.
        publishCrashDump(renderDump("fatal signal", {}));
        lk.lock();
    }
}

std::string
StallWatchdog::renderDump(const char *reason,
                          const std::vector<bool> &stalled) const
{
    const std::uint64_t now = nowMs();
    std::ostringstream os;
    os << "watchdog dump (" << reason << ", stall threshold "
       << stallMs_ << "ms, t+" << now << "ms)\n";
    for (std::size_t i = 0; i < workers_.size(); ++i) {
        const Worker &w = *workers_[i];
        const bool flag = i < stalled.size() && stalled[i];
        const Tick clock =
            w.clock ? w.clock->load(std::memory_order_relaxed) : 0;
        const bool done =
            w.finished && w.finished->load(std::memory_order_relaxed);
        os << (flag ? "  * " : "    ") << w.name;
        if (w.clock)
            os << " clock=" << clock;
        if (done)
            os << " [finished]";
        if (flag)
            os << " STALLED " << (now - w.lastChangeMs) << "ms";
        const auto events = w.recorder.recent(4);
        if (!events.empty()) {
            os << " last:";
            for (const auto &e : events)
                os << ' ' << e.name << '@' << e.cycle;
        }
        os << '\n';
    }
    // Say *what* each host thread is doing right now (one relaxed
    // byte read of its recorder slot), not just that a clock stopped.
    // Watchdog-thread path only — the fatal-signal handler reuses the
    // pre-rendered buffer and never gets here.
    for (const auto &[role, phase] : Recorder::instance().livePhases())
        os << "    thread " << role << " phase=" << phase << '\n';
    // probe_ is read under the lock in emitDump()'s caller context;
    // here take it defensively since dumpNow() can race setProgressProbe.
    std::function<std::string()> probe;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        probe = probe_;
    }
    if (probe)
        os << "    " << probe() << '\n';
    return os.str();
}

void
StallWatchdog::publishCrashDump(const std::string &text)
{
    const int next = 1 - std::max(crashPub_.load(
                             std::memory_order_relaxed), 0);
    CrashBuf &buf = crash_[next];
    const std::size_t n =
        std::min(text.size(), sizeof(buf.text) - 1);
    std::memcpy(buf.text, text.data(), n);
    buf.text[n] = '\n';
    buf.len.store(n + 1, std::memory_order_relaxed);
    crashPub_.store(next, std::memory_order_release);
}

void
StallWatchdog::emitDump(const char *reason,
                        const std::vector<bool> &stalled)
{
    const std::string text = renderDump(reason, stalled);
    dumps_.fetch_add(1, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lk(mutex_);
        lastDump_ = text;
    }
    publishCrashDump(text);
    SLACKSIM_WARN(text);
}

void
StallWatchdog::dumpNow(const char *reason)
{
    emitDump(reason, {});
}

std::string
StallWatchdog::lastDump() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return lastDump_;
}

void
StallWatchdog::signalHandler(int signo)
{
    // Async-signal-safe path: write() the pre-rendered snapshot, put
    // the default disposition back and re-raise so the process still
    // dies with the original signal.
    StallWatchdog *wd = activeWatchdog.load(std::memory_order_acquire);
    if (wd) {
        const int pub = wd->crashPub_.load(std::memory_order_acquire);
        if (pub >= 0) {
            const CrashBuf &buf = wd->crash_[pub];
            const std::size_t len =
                buf.len.load(std::memory_order_relaxed);
            // Best effort; nothing to do about a failed write while
            // crashing.
            [[maybe_unused]] ssize_t rc =
                write(STDERR_FILENO, buf.text, len);
        }
    }
    ::sigaction(signo, signo == SIGABRT ? &oldAbrt : &oldSegv, nullptr);
    ::raise(signo);
}

void
StallWatchdog::installSignalHandlers()
{
    StallWatchdog *expected = nullptr;
    if (!activeWatchdog.compare_exchange_strong(
            expected, this, std::memory_order_release))
        return; // another watchdog already owns the signal path
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = &StallWatchdog::signalHandler;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGABRT, &sa, &oldAbrt);
    ::sigaction(SIGSEGV, &sa, &oldSegv);
    signalsInstalled_ = true;
}

void
StallWatchdog::removeSignalHandlers()
{
    if (!signalsInstalled_)
        return;
    ::sigaction(SIGABRT, &oldAbrt, nullptr);
    ::sigaction(SIGSEGV, &oldSegv, nullptr);
    StallWatchdog *expected = this;
    activeWatchdog.compare_exchange_strong(expected, nullptr,
                                           std::memory_order_release);
    signalsInstalled_ = false;
}

} // namespace obs
} // namespace slacksim
