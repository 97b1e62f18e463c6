/**
 * @file
 * Bounded lock-free single-producer/single-consumer ring buffer.
 *
 * Used for the per-core OutQ (core thread -> manager thread) and InQ
 * (manager thread -> core thread). The design matches the classic
 * Lamport queue with C++11 acquire/release pairs. The capacity is
 * rounded up to a power of two and the head and tail indices run
 * free (they are reduced modulo the ring size only to address a
 * slot), so a ring of N slots holds exactly N elements: full is
 * `tail - head == N`, and no slot is sacrificed to tell full from
 * empty.
 *
 * Slot storage is allocated, not constructed: the element type must be
 * trivially copyable, and a slot is first written by the push that
 * fills it. A large ring therefore costs resident memory only for the
 * pages its traffic has reached, not for its whole capacity.
 *
 * Two refinements over the textbook queue keep the hot paths cheap:
 *
 *  - **Cached index mirrors.** The producer keeps a non-atomic copy
 *    of the consumer's head (and vice versa) and only reloads the
 *    remote atomic when the cached value makes the queue look
 *    full/empty. A producer therefore pays one remote acquire load
 *    per *wraparound's worth* of elements instead of one per push —
 *    the cache line holding the remote index stops ping-ponging
 *    between the two cores.
 *
 *  - **Batch operations.** pushN()/popN()/consumeAll() move a whole
 *    run of elements under a single acquire/release index pair, so
 *    the fence and index-publication cost is amortized across the
 *    batch (the manager pumps bursts of events, not single ones).
 */

#ifndef SLACKSIM_UTIL_SPSC_QUEUE_HH
#define SLACKSIM_UTIL_SPSC_QUEUE_HH

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

#include "util/logging.hh"

namespace slacksim {

/**
 * Bounded SPSC FIFO. Exactly one thread may call the producer
 * operations push()/pushN()/full()/hasFreeSpace(); exactly one
 * (possibly different) thread may call the consumer operations
 * pop()/popN()/consumeAll()/front()/popFront()/empty().
 * The quiesced*() helpers may only be used while both sides are parked
 * (e.g. during checkpoint/rollback).
 */
template <typename T>
class SpscQueue
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "SpscQueue slots are raw storage: the element must "
                  "be trivially copyable");

  public:
    /** @param capacity minimum number of storable elements; the ring
     *  holds exactly std::bit_ceil(capacity) of them. */
    explicit SpscQueue(std::size_t capacity = 1024)
        : mask_(std::bit_ceil(capacity == 0 ? 1 : capacity) - 1),
          slots_(std::allocator<T>{}.allocate(mask_ + 1))
    {
    }

    ~SpscQueue() { std::allocator<T>{}.deallocate(slots_, mask_ + 1); }

    SpscQueue(const SpscQueue &) = delete;
    SpscQueue &operator=(const SpscQueue &) = delete;

    /** Producer: append an element. @return false when full. */
    bool
    push(const T &value)
    {
        const std::size_t tail = tail_.load(std::memory_order_relaxed);
        if (tail - headCache_ > mask_) {
            headCache_ = head_.load(std::memory_order_acquire);
            if (tail - headCache_ > mask_)
                return false;
        }
        std::construct_at(slot(tail), value);
        tail_.store(tail + 1, std::memory_order_release);
        return true;
    }

    /**
     * Producer: append up to @p n elements from @p items under one
     * index publication. @return the number actually appended (less
     * than @p n only when the queue filled up).
     */
    std::size_t
    pushN(const T *items, std::size_t n)
    {
        const std::size_t tail = tail_.load(std::memory_order_relaxed);
        std::size_t free = capacity() - (tail - headCache_);
        if (free < n) {
            headCache_ = head_.load(std::memory_order_acquire);
            free = capacity() - (tail - headCache_);
        }
        const std::size_t count = n < free ? n : free;
        for (std::size_t i = 0; i < count; ++i)
            std::construct_at(slot(tail + i), items[i]);
        if (count)
            tail_.store(tail + count, std::memory_order_release);
        return count;
    }

    /** Consumer: @return pointer to the oldest element, or nullptr. */
    const T *
    front() const
    {
        const std::size_t head = head_.load(std::memory_order_relaxed);
        if (head == tailCache_) {
            tailCache_ = tail_.load(std::memory_order_acquire);
            if (head == tailCache_)
                return nullptr;
        }
        return slot(head);
    }

    /** Consumer: remove the oldest element. @return false if empty. */
    bool
    pop(T &out)
    {
        const std::size_t head = head_.load(std::memory_order_relaxed);
        if (head == tailCache_) {
            tailCache_ = tail_.load(std::memory_order_acquire);
            if (head == tailCache_)
                return false;
        }
        out = *slot(head);
        head_.store(head + 1, std::memory_order_release);
        return true;
    }

    /**
     * Consumer: remove up to @p max elements into @p out under one
     * index publication. @return the number removed.
     */
    std::size_t
    popN(T *out, std::size_t max)
    {
        const std::size_t head = head_.load(std::memory_order_relaxed);
        std::size_t avail = tailCache_ - head;
        if (avail < max) {
            tailCache_ = tail_.load(std::memory_order_acquire);
            avail = tailCache_ - head;
        }
        const std::size_t count = max < avail ? max : avail;
        for (std::size_t i = 0; i < count; ++i)
            out[i] = *slot(head + i);
        if (count)
            head_.store(head + count, std::memory_order_release);
        return count;
    }

    /**
     * Consumer: invoke @p fn on every currently visible element in
     * FIFO order, then free all their slots with one index
     * publication. Elements pushed while the drain runs are picked up
     * by the next call. @return the number consumed.
     *
     * @p fn must not touch this queue (the slots are still occupied
     * while it runs).
     */
    template <typename Fn>
    std::size_t
    consumeAll(Fn &&fn)
    {
        const std::size_t head = head_.load(std::memory_order_relaxed);
        const std::size_t tail = tail_.load(std::memory_order_acquire);
        tailCache_ = tail;
        for (std::size_t i = head; i != tail; ++i)
            fn(static_cast<const T &>(*slot(i)));
        if (tail != head)
            head_.store(tail, std::memory_order_release);
        return tail - head;
    }

    /** Consumer: drop the oldest element (must exist). */
    void
    popFront()
    {
        // front() keeps the tail mirror at or past the new head.
        SLACKSIM_ASSERT(front() != nullptr, "popFront on empty SpscQueue");
        head_.store(head_.load(std::memory_order_relaxed) + 1,
                    std::memory_order_release);
    }

    /** Consumer-side emptiness check. */
    bool
    empty() const
    {
        const std::size_t head = head_.load(std::memory_order_relaxed);
        if (head != tailCache_)
            return false;
        tailCache_ = tail_.load(std::memory_order_acquire);
        return head == tailCache_;
    }

    /** Producer: @return true when at least @p n more elements fit. */
    bool
    hasFreeSpace(std::size_t n) const
    {
        const std::size_t tail = tail_.load(std::memory_order_relaxed);
        std::size_t free = capacity() - (tail - headCache_);
        if (free < n) {
            headCache_ = head_.load(std::memory_order_acquire);
            free = capacity() - (tail - headCache_);
        }
        return free >= n;
    }

    /** Producer-side fullness check. */
    bool
    full() const
    {
        return !hasFreeSpace(1);
    }

    /**
     * Element count. Both indices are loaded with acquire order, but
     * they cannot be read atomically *together*, so while the other
     * endpoint is live the result is a snapshot that may already be
     * stale by in-flight elements in either direction (it is clamped
     * to capacity()). It is exact only when both endpoints are
     * quiesced (checkpoint paths) or when called by the sole endpoint
     * that mutates the queue.
     */
    std::size_t
    size() const
    {
        const std::size_t head = head_.load(std::memory_order_acquire);
        const std::size_t tail = tail_.load(std::memory_order_acquire);
        return std::min(tail - head, capacity());
    }

    /** Maximum number of storable elements: a power of two. */
    std::size_t capacity() const { return mask_ + 1; }

    /**
     * Copy the queue contents front-to-back. Requires both endpoints
     * to be quiescent (checkpoint path only).
     */
    std::vector<T>
    quiescedContents() const
    {
        std::vector<T> out;
        const std::size_t head = head_.load(std::memory_order_acquire);
        const std::size_t tail = tail_.load(std::memory_order_acquire);
        out.reserve(tail - head);
        for (std::size_t i = head; i != tail; ++i)
            out.push_back(*slot(i));
        return out;
    }

    /**
     * Replace the queue contents. Requires both endpoints to be
     * quiescent (rollback path only).
     */
    void
    quiescedAssign(const std::vector<T> &items)
    {
        SLACKSIM_ASSERT(items.size() <= capacity(),
                        "quiescedAssign overflow");
        head_.store(0, std::memory_order_relaxed);
        // The mirrors are conservative (they make the queue look
        // *more* full/empty than it is), so resetting them here while
        // everything is parked is safe for both endpoints.
        headCache_ = 0;
        tailCache_ = 0;
        for (std::size_t i = 0; i < items.size(); ++i)
            std::construct_at(slot(i), items[i]);
        tail_.store(items.size(), std::memory_order_release);
    }

  private:
    T *slot(std::size_t index) const { return slots_ + (index & mask_); }

    const std::size_t mask_;
    T *const slots_;
    /** Consumer-owned line: real head plus the consumer's cached view
     *  of the producer's tail. */
    alignas(64) std::atomic<std::size_t> head_{0};
    mutable std::size_t tailCache_ = 0;
    /** Producer-owned line: real tail plus the producer's cached view
     *  of the consumer's head. */
    alignas(64) std::atomic<std::size_t> tail_{0};
    mutable std::size_t headCache_ = 0;
};

} // namespace slacksim

#endif // SLACKSIM_UTIL_SPSC_QUEUE_HH
