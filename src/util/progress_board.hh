/**
 * @file
 * Sharded progress counter with a futex-friendly sleep protocol.
 *
 * The parallel engine's original progress counter was a single
 * seq_cst fetch_add that every core hammered once per
 * burst: one cache line ping-ponging across every host core, plus an
 * unconditional notify. This board gives each producer thread its own
 * padded slot — a bump is a release store to a line nobody else
 * writes — and funnels sleep/wake through a separate generation word
 * that is only touched when somebody is actually asleep.
 *
 * Lost-wakeup safety is the classic Dekker store-buffering argument:
 * a producer stores its slot, then (seq_cst fence) reads the sleeper
 * count; a sleeper increments the sleeper count (seq_cst RMW), then
 * (seq_cst fence) re-reads the slot sum. At least one side must see
 * the other's write, so either the producer bumps the generation and
 * notifies, or the sleeper observes the new sum and never blocks.
 * The generation snapshot is taken *before* the re-check, so a bump
 * that lands between re-check and wait makes the wait return
 * immediately. All shared state lives on std::atomic, so the
 * protocol is TSan-clean by construction.
 */

#ifndef SLACKSIM_UTIL_PROGRESS_BOARD_HH
#define SLACKSIM_UTIL_PROGRESS_BOARD_HH

#include <atomic>
#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace slacksim {

/** Per-thread progress slots + generation word for sleepers. */
class ProgressBoard
{
  public:
    explicit ProgressBoard(std::uint32_t slots)
        : slots_(slots)
    {
        SLACKSIM_ASSERT(slots > 0, "ProgressBoard needs >= 1 slot");
    }

    ProgressBoard(const ProgressBoard &) = delete;
    ProgressBoard &operator=(const ProgressBoard &) = delete;

    /**
     * Record progress on @p slot (single writer per slot). A release
     * store on a private line, so a reader whose sum() includes it
     * also sees what the writer published before; the generation word
     * is bumped and notified only when a sleeper is registered.
     */
    void
    bump(std::uint32_t slot)
    {
        auto &s = slots_[slot].count;
        s.store(s.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (sleepers_.load(std::memory_order_relaxed) > 0) {
            gen_.fetch_add(1, std::memory_order_release);
            gen_.notify_all();
        }
    }

    /** Snapshot of total progress (acquire per slot; see bump()). */
    std::uint64_t
    sum() const
    {
        std::uint64_t total = 0;
        for (const Slot &s : slots_)
            total += s.count.load(std::memory_order_acquire);
        return total;
    }

    /**
     * Block until progress moves past the @p seen snapshot (or a
     * wakeAll()/spurious wake). @p eligible is re-evaluated after
     * registering as a sleeper; return false from it to abort the
     * sleep (e.g. the world is pausing or stopping).
     */
    template <typename Pred>
    void
    sleep(std::uint64_t seen, Pred &&eligible)
    {
        sleepers_.fetch_add(1, std::memory_order_seq_cst);
        const std::uint64_t g = gen_.load(std::memory_order_acquire);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (sum() == seen && eligible())
            gen_.wait(g, std::memory_order_acquire);
        sleepers_.fetch_sub(1, std::memory_order_relaxed);
    }

    /** Generation word snapshot (wakeups seen; forensics probes). */
    std::uint64_t
    generation() const
    {
        return gen_.load(std::memory_order_relaxed);
    }

    /** Wake every sleeper unconditionally (pause/stop paths). */
    void
    wakeAll()
    {
        gen_.fetch_add(1, std::memory_order_seq_cst);
        gen_.notify_all();
    }

  private:
    struct Slot
    {
        alignas(64) std::atomic<std::uint64_t> count{0};
    };

    std::vector<Slot> slots_;
    alignas(64) std::atomic<std::uint64_t> gen_{0};
    std::atomic<int> sleepers_{0};
};

} // namespace slacksim

#endif // SLACKSIM_UTIL_PROGRESS_BOARD_HH
