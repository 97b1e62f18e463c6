/**
 * @file
 * The manager thread's global cache status map: for every line ever
 * cached it tracks which cores hold it in their L1 D/I caches and
 * which (if any) core owns it modified. This is the "cache status map
 * maintained in the simulation manager thread" whose out-of-order
 * transitions are counted as *map violations* in the paper.
 */

#ifndef SLACKSIM_UNCORE_GLOBAL_MAP_HH
#define SLACKSIM_UNCORE_GLOBAL_MAP_HH

#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/flat_table.hh"
#include "util/snapshot.hh"
#include "util/types.hh"

namespace slacksim {

/** Global (manager-side) state of one cached line. */
struct MapEntry
{
    std::uint64_t dSharers = 0; //!< bitmask of cores with a D copy
    std::uint64_t iSharers = 0; //!< bitmask of cores with an I copy
    CoreId owner = invalidCore; //!< core holding the line Modified
    CoreId lastTouch = invalidCore; //!< core that last advanced the
                                    //!< monitor (forensics attribution)
    Tick monitorTs = 0;         //!< violation-detection monitor

    bool
    empty() const
    {
        return dSharers == 0 && iSharers == 0 && owner == invalidCore;
    }
};

/**
 * The global cache status map. Lines live in pages of 256 consecutive
 * lines, found by page number through a one-entry last-page cache
 * and, on a miss, an open-addressed page-number index. An entry never
 * moves once created, so a MapEntry & stays valid while other lines
 * are inserted. The pages are also kept in address order, which
 * save() walks, so identical logical states always produce identical
 * snapshot bytes. Only the manager thread touches the map.
 */
class GlobalCacheMap : public Snapshotable
{
  public:
    /** @param line_bytes coherence line size (a power of two); every
     *  key is a line address, a multiple of it. */
    explicit GlobalCacheMap(std::uint32_t line_bytes = 64);

    /** @return the entry for @p line, creating it when absent. */
    MapEntry &entry(Addr line);

    /** @return the entry for @p line or nullptr. */
    const MapEntry *find(Addr line) const;

    /** Drop an entry that became empty. */
    void eraseIfEmpty(Addr line);

    /** @return number of tracked lines. */
    std::size_t size() const { return size_; }

    /**
     * Record a transition for violation detection: returns true when
     * @p ts is older than the line's monitoring timestamp (i.e. this
     * is a map violation), else advances the monitor and remembers
     * @p src as the last in-order toucher. A violating access leaves
     * both the monitor and the attribution untouched — the violator
     * did not win the line.
     */
    bool
    recordTransition(MapEntry &e, Tick ts, CoreId src)
    {
        if (ts < e.monitorTs)
            return true;
        e.monitorTs = ts;
        e.lastTouch = src;
        return false;
    }

    /**
     * Invariant check for tests: an owned line has no other sharers
     * in any D cache and the owner bit set.
     */
    void checkInvariants() const;

    void save(SnapshotWriter &writer) const override;
    void restore(SnapshotReader &reader) override;

  private:
    static constexpr std::uint32_t pageShift = 8;
    static constexpr std::uint32_t pageLines = 1u << pageShift;

    /** 256 consecutive lines; a slot is live while its bit is set. */
    struct Page
    {
        std::uint64_t present[pageLines / 64] = {};
        MapEntry entries[pageLines];

        bool
        has(std::uint32_t slot) const
        {
            return (present[slot / 64] >> (slot % 64)) & 1;
        }
    };

    /** Where a line lives: its page number and its slot there. */
    struct Location
    {
        std::uint64_t page;
        std::uint32_t slot;
    };

    Location
    locate(Addr line) const
    {
        const Addr index = line >> lineShift_;
        return {index >> pageShift,
                static_cast<std::uint32_t>(index % pageLines)};
    }

    /** @return the page numbered @p number, or nullptr. */
    Page *findPage(std::uint64_t number);
    const Page *findPage(std::uint64_t number) const;

    /** @return the page numbered @p number, creating it when absent. */
    Page &page(std::uint64_t number);

    /** Call @p fn(line, entry) for every live line in address order. */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (const auto &[number, p] : pages_) {
            for (std::uint32_t w = 0; w < pageLines / 64; ++w) {
                for (std::uint64_t bits = p->present[w]; bits != 0;
                     bits &= bits - 1) {
                    const auto slot = static_cast<std::uint32_t>(
                        w * 64 + std::countr_zero(bits));
                    fn(((number << pageShift) | slot) << lineShift_,
                       p->entries[slot]);
                }
            }
        }
    }

    std::uint32_t lineShift_;
    /** Sorted by page number; a Page never moves once allocated. */
    std::vector<std::pair<std::uint64_t, std::unique_ptr<Page>>> pages_;
    /** Page number to page, for every page in pages_. */
    FlatTable<Page *> index_;
    /** The last page entry() touched; no page has number ~0. */
    std::uint64_t lastNumber_ = ~std::uint64_t{0};
    Page *lastPage_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace slacksim

#endif // SLACKSIM_UNCORE_GLOBAL_MAP_HH
