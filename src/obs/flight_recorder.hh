/**
 * @file
 * Flight recorder + stall watchdog: turn hangs and crashes into
 * actionable reports.
 *
 * Each registered worker owns a tiny ring of its most recent lifecycle
 * events (park, resume, finish, pause-ack, ...). A watchdog thread
 * polls every worker's local clock and ring head; when an eligible
 * worker makes no progress for the configured wall time the watchdog
 * dumps every worker's last clock, stall age and recent events, the
 * live phase of every host thread registered with the recorder
 * (obs/recorder.hh), and an engine-supplied progress probe
 * (ProgressBoard sum/generation). The
 * same dump is pre-rendered continuously so a fatal signal (SIGABRT
 * from a panic, SIGSEGV) can emit it with nothing but write(2).
 *
 * Overhead contract: a worker's note() is a handful of relaxed atomic
 * stores; when no watchdog is configured (--watchdog-ms=0, the
 * default) the engines hold a null pointer and pay one branch. The
 * watchdog never kills the run — it reports and re-arms.
 */

#ifndef SLACKSIM_OBS_FLIGHT_RECORDER_HH
#define SLACKSIM_OBS_FLIGHT_RECORDER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/types.hh"

namespace slacksim {
namespace obs {

/**
 * Per-worker ring of recent lifecycle events. Single writer (the
 * worker), concurrent reader (the watchdog). All fields are relaxed
 * atomics: a reader may observe a torn *entry* (name from one event,
 * cycle from the next lap) but never a torn *field* — acceptable for
 * a best-effort post-mortem, and clean under TSan.
 */
class FlightRecorder
{
  public:
    static constexpr std::size_t capacity = 32;

    /** One recorded event. @p name must be a string literal. */
    struct Entry
    {
        std::atomic<std::uint64_t> seq{0}; //!< 0 = never written
        std::atomic<Tick> cycle{0};
        std::atomic<const char *> name{nullptr};
    };

    /** Worker side: append one event. */
    void
    note(const char *name, Tick cycle)
    {
        const std::uint64_t seq =
            head_.load(std::memory_order_relaxed) + 1;
        Entry &e = ring_[seq % capacity];
        e.cycle.store(cycle, std::memory_order_relaxed);
        e.name.store(name, std::memory_order_relaxed);
        e.seq.store(seq, std::memory_order_relaxed);
        head_.store(seq, std::memory_order_relaxed);
    }

    /** @return events recorded so far (watchdog progress signal). */
    std::uint64_t
    headSeq() const
    {
        return head_.load(std::memory_order_relaxed);
    }

    /**
     * Reader side: copy the most recent events, oldest first.
     * @return up to @p max (seq, cycle, name) tuples.
     */
    struct Snapshot
    {
        std::uint64_t seq = 0;
        Tick cycle = 0;
        const char *name = nullptr;
    };
    std::vector<Snapshot> recent(std::size_t max) const;

  private:
    std::atomic<std::uint64_t> head_{0};
    Entry ring_[capacity];
};

/**
 * Watchdog thread that monitors registered workers and dumps the
 * flight state on stall, fatal signal, or demand.
 */
class StallWatchdog
{
  public:
    /** @param stall_ms wall time without progress that counts as a
     *  stall. */
    explicit StallWatchdog(std::uint64_t stall_ms);
    ~StallWatchdog();

    StallWatchdog(const StallWatchdog &) = delete;
    StallWatchdog &operator=(const StallWatchdog &) = delete;

    /**
     * Register a worker before start().
     *
     * @param name  display label ("core 3", "manager")
     * @param clock the worker's local clock, or nullptr when it has
     *              none (progress is then judged by note() traffic)
     * @param finished optional completion flag; a finished worker is
     *              never considered stalled
     * @param stall_eligible false = informational only (shown in
     *              dumps, never triggers one)
     * @return worker index for note()
     */
    std::size_t addWorker(std::string name,
                          const std::atomic<Tick> *clock,
                          const std::atomic<bool> *finished,
                          bool stall_eligible);

    /** Worker hot path: record a lifecycle event. */
    void
    note(std::size_t worker, const char *event, Tick cycle)
    {
        workers_[worker]->recorder.note(event, cycle);
    }

    /** Engine-supplied one-line progress summary, polled per dump. */
    void setProgressProbe(std::function<std::string()> probe);

    /** Spawn the watchdog thread (workers must all be registered). */
    void start();

    /** Stop and join the watchdog thread. Idempotent. */
    void stop();

    /** Force a dump right now (on-demand forensics). */
    void dumpNow(const char *reason = "on demand");

    /** @return dumps emitted so far (stall-triggered + on-demand). */
    std::uint64_t stallDumps() const
    {
        return dumps_.load(std::memory_order_relaxed);
    }

    /** @return the text of the most recent dump ("" when none). */
    std::string lastDump() const;

    std::uint64_t stallMs() const { return stallMs_; }

  private:
    struct Worker
    {
        std::string name;
        const std::atomic<Tick> *clock = nullptr;
        const std::atomic<bool> *finished = nullptr;
        bool stallEligible = false;
        FlightRecorder recorder;

        // Watchdog-thread-only bookkeeping.
        Tick lastClock = 0;
        std::uint64_t lastSeq = 0;
        std::uint64_t lastChangeMs = 0;
    };

    void threadMain();

    /** @return ms since start(). */
    std::uint64_t nowMs() const;

    /**
     * Render the full dump. @param stalled per-worker stall flags
     * (empty = none flagged, e.g. on-demand dumps).
     */
    std::string renderDump(const char *reason,
                           const std::vector<bool> &stalled) const;

    /** Publish @p text for the async-signal-safe crash path. */
    void publishCrashDump(const std::string &text);

    void emitDump(const char *reason, const std::vector<bool> &stalled);

    static void signalHandler(int signo);
    void installSignalHandlers();
    void removeSignalHandlers();

    const std::uint64_t stallMs_;
    std::vector<std::unique_ptr<Worker>> workers_;
    std::function<std::string()> probe_;

    std::chrono::steady_clock::time_point t0_;
    std::thread thread_;
    mutable std::mutex mutex_; //!< guards cv_, lastDump_, probe_
    std::condition_variable cv_;
    bool stopping_ = false;
    bool started_ = false;
    std::atomic<std::uint64_t> dumps_{0};
    std::string lastDump_;

    // Crash-dump double buffer: the watchdog thread renders into the
    // unpublished slot, then flips. The signal handler write(2)s the
    // published slot without taking any lock.
    struct CrashBuf
    {
        char text[8192];
        std::atomic<std::size_t> len{0};
    };
    CrashBuf crash_[2];
    std::atomic<int> crashPub_{-1}; //!< -1 = nothing rendered yet
    bool signalsInstalled_ = false;
};

} // namespace obs
} // namespace slacksim

#endif // SLACKSIM_OBS_FLIGHT_RECORDER_HH
