/**
 * @file
 * GlobalCacheMap implementation.
 */

#include "uncore/global_map.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace slacksim {

namespace {

/** Orders (page number, page) pairs by number for lower_bound. */
constexpr auto byNumber = [](const auto &page, std::uint64_t number) {
    return page.first < number;
};

} // namespace

GlobalCacheMap::GlobalCacheMap(std::uint32_t line_bytes)
    : lineShift_(static_cast<std::uint32_t>(std::countr_zero(line_bytes)))
{
    SLACKSIM_ASSERT(std::has_single_bit(line_bytes),
                    "map line size must be a power of two");
}

GlobalCacheMap::Page *
GlobalCacheMap::findPage(std::uint64_t number)
{
    if (number == lastNumber_)
        return lastPage_;
    const auto it =
        std::lower_bound(pages_.begin(), pages_.end(), number, byNumber);
    return it != pages_.end() && it->first == number ? it->second.get()
                                                     : nullptr;
}

const GlobalCacheMap::Page *
GlobalCacheMap::findPage(std::uint64_t number) const
{
    return const_cast<GlobalCacheMap *>(this)->findPage(number);
}

GlobalCacheMap::Page &
GlobalCacheMap::page(std::uint64_t number)
{
    if (number == lastNumber_)
        return *lastPage_;
    auto it =
        std::lower_bound(pages_.begin(), pages_.end(), number, byNumber);
    if (it == pages_.end() || it->first != number)
        it = pages_.emplace(it, number, std::make_unique<Page>());
    lastNumber_ = number;
    lastPage_ = it->second.get();
    return *lastPage_;
}

MapEntry &
GlobalCacheMap::entry(Addr line)
{
    SLACKSIM_ASSERT((line >> lineShift_) << lineShift_ == line, "map key ",
                    line, " is not a line address");
    const auto [number, slot] = locate(line);
    Page &p = page(number);
    if (!p.has(slot)) {
        p.present[slot / 64] |= std::uint64_t{1} << (slot % 64);
        p.entries[slot] = MapEntry{};
        ++size_;
    }
    return p.entries[slot];
}

const MapEntry *
GlobalCacheMap::find(Addr line) const
{
    const auto [number, slot] = locate(line);
    const Page *p = findPage(number);
    return p && p->has(slot) ? &p->entries[slot] : nullptr;
}

void
GlobalCacheMap::eraseIfEmpty(Addr line)
{
    const auto [number, slot] = locate(line);
    Page *p = findPage(number);
    if (p && p->has(slot) && p->entries[slot].empty()) {
        // The page stays, so no other entry moves.
        p->present[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
        --size_;
    }
}

void
GlobalCacheMap::checkInvariants() const
{
    forEachLine([](Addr line, const MapEntry &e) {
        if (e.owner != invalidCore) {
            const std::uint64_t owner_bit = 1ull << e.owner;
            SLACKSIM_ASSERT((e.dSharers & ~owner_bit) == 0,
                            "owned line ", line,
                            " has foreign D sharers");
            SLACKSIM_ASSERT((e.dSharers & owner_bit) != 0,
                            "owner of line ", line,
                            " missing from sharer mask");
        }
    });
}

void
GlobalCacheMap::save(SnapshotWriter &writer) const
{
    writer.putMarker(0x6d41);
    // Pages and their slots are in address order, so the lines go out
    // sorted by address without a sort.
    writer.put<std::uint64_t>(size_);
    forEachLine([&writer](Addr line, const MapEntry &e) {
        writer.put(line);
        writer.put(e);
    });
}

void
GlobalCacheMap::restore(SnapshotReader &reader)
{
    reader.checkMarker(0x6d41);
    // Keep the pages (and so the entry addresses) and clear them.
    for (auto &[number, p] : pages_)
        std::fill(std::begin(p->present), std::end(p->present), 0);
    size_ = 0;
    const auto count = reader.get<std::uint64_t>();
    for (std::uint64_t i = 0; i < count; ++i) {
        const Addr line = reader.get<Addr>();
        entry(line) = reader.get<MapEntry>();
    }
}

} // namespace slacksim
