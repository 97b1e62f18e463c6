/**
 * @file
 * An open-addressed hash table from 64-bit keys to small values.
 *
 * The manager looks up a coherence-map page on every bus request and
 * a violation-ledger bucket on every counted violation. A node-based
 * map pays a pointer chase and an allocation per key for that, and a
 * sorted vector a binary search. This table pays one multiply and,
 * almost always, one probe into a flat slot array:
 *
 * - keys are hashed by Fibonacci multiplication and probed linearly;
 * - the slot array is a power of two kept at most 3/4 full, and
 *   doubles when an insert would pass that;
 * - a slot is empty while its key is the sentinel emptyKey, so no
 *   occupancy array sits beside the slots;
 * - the table starts with no slots at all, so an unused table costs
 *   no memory.
 *
 * There is no erase: both users only insert and clear. Slot order is
 * a hash order; a caller that needs its keys in order sorts them.
 */

#ifndef SLACKSIM_UTIL_FLAT_TABLE_HH
#define SLACKSIM_UTIL_FLAT_TABLE_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace slacksim {

/** @tparam V a small, default-constructible value type. */
template <typename V>
class FlatTable
{
  public:
    /** The one key the table cannot hold: it marks an empty slot. */
    static constexpr std::uint64_t emptyKey = ~std::uint64_t{0};

    /** @return the number of keys held. */
    std::size_t size() const { return size_; }

    /** @return the value of @p key, or nullptr when it is absent. */
    V *
    find(std::uint64_t key)
    {
        if (size_ == 0)
            return nullptr;
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (s.key == key)
                return &s.value;
            if (s.key == emptyKey)
                return nullptr;
        }
    }

    /** @return the value of @p key, inserting V{} when it is absent. */
    V &
    operator[](std::uint64_t key)
    {
        SLACKSIM_ASSERT(key != emptyKey, "the empty-slot key ", key,
                        " cannot be stored");
        if ((size_ + 1) * 4 > slots_.size() * 3)
            reserve(size_ + 1);
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (s.key == key)
                return s.value;
            if (s.key == emptyKey) {
                s.key = key;
                ++size_;
                return s.value;
            }
        }
    }

    /** Make room for @p n keys, so inserting them never grows. */
    void
    reserve(std::size_t n)
    {
        std::size_t capacity = slots_.empty() ? minSlots : slots_.size();
        while (n * 4 > capacity * 3)
            capacity *= 2;
        if (capacity != slots_.size())
            rehash(capacity);
    }

    /** Drop every key; the slots stay allocated for reuse. */
    void
    clear()
    {
        if (size_ == 0)
            return;
        for (Slot &s : slots_)
            s = Slot{};
        size_ = 0;
    }

    /** Call @p fn(key, value) for every key, in slot order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : slots_)
            if (s.key != emptyKey)
                fn(s.key, s.value);
    }

  private:
    static constexpr std::size_t minSlots = 16;

    struct Slot
    {
        std::uint64_t key = emptyKey;
        V value{};
    };

    /** @return @p key's first probe: the top bits of its product with
     *  2^64 / phi, which spreads runs of consecutive keys. */
    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ull) >> shift_);
    }

    void
    rehash(std::size_t capacity)
    {
        std::vector<Slot> old(capacity);
        old.swap(slots_);
        mask_ = capacity - 1;
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
        for (const Slot &s : old) {
            if (s.key == emptyKey)
                continue;
            std::size_t i = home(s.key);
            while (slots_[i].key != emptyKey)
                i = (i + 1) & mask_;
            slots_[i] = s;
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;  //!< slots_.size() - 1, once there are slots
    unsigned shift_ = 63;   //!< 64 - log2(slots_.size())
};

} // namespace slacksim

#endif // SLACKSIM_UTIL_FLAT_TABLE_HH
