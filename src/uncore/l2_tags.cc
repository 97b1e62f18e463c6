/**
 * @file
 * L2Tags implementation.
 */

#include "uncore/l2_tags.hh"

#include <bit>

#include "util/logging.hh"

namespace slacksim {

L2Tags::L2Tags(const L2Params &params)
    : params_(params),
      lineShift_(static_cast<std::uint32_t>(
          std::countr_zero(params.lineBytes)))
{
    const std::uint64_t total_lines =
        std::uint64_t{params_.totalKb} * 1024 / params_.lineBytes;
    SLACKSIM_ASSERT(total_lines % (params_.ways * params_.banks) == 0,
                    "L2 geometry does not divide evenly");
    totalSets_ = static_cast<std::uint32_t>(total_lines / params_.ways);
    setsPerBank_ = totalSets_ / params_.banks;
    SLACKSIM_ASSERT(std::has_single_bit(totalSets_) &&
                        std::has_single_bit(params_.banks) &&
                        std::has_single_bit(params_.lineBytes),
                    "L2 sets, banks and line size must be powers of two");
    setBits_ = static_cast<std::uint32_t>(std::countr_zero(totalSets_));
    lines_.resize(total_lines);
}

std::uint32_t
L2Tags::setIndex(Addr line) const
{
    // XOR-folded index hash (common in real L2s): plain modulo
    // indexing maps any large power-of-two stride — per-thread code
    // and private regions live at such strides — onto a single set,
    // which with >ways cores thrashes one set with back-invalidations.
    std::uint64_t x = line >> lineShift_;
    std::uint64_t folded = 0;
    while (x) {
        folded ^= x;
        x >>= setBits_;
    }
    return static_cast<std::uint32_t>(folded & (totalSets_ - 1));
}

std::uint32_t
L2Tags::bank(Addr line) const
{
    return static_cast<std::uint32_t>((line >> lineShift_) &
                                      (params_.banks - 1));
}

L2Tags::Line *
L2Tags::find(Addr line)
{
    Line *base = &lines_[static_cast<std::size_t>(setIndex(line)) *
                         params_.ways];
    for (std::uint32_t w = 0; w < params_.ways; ++w)
        if (base[w].valid && base[w].tag == line)
            return &base[w];
    return nullptr;
}

const L2Tags::Line *
L2Tags::find(Addr line) const
{
    return const_cast<L2Tags *>(this)->find(line);
}

bool
L2Tags::lookup(Addr line)
{
    if (Line *l = find(line)) {
        l->lruStamp = ++lruClock_;
        return true;
    }
    return false;
}

bool
L2Tags::probe(Addr line) const
{
    return find(line) != nullptr;
}

L2FillResult
L2Tags::fill(Addr line, bool dirty)
{
    L2FillResult result;
    if (Line *l = find(line)) {
        l->dirty |= dirty ? 1 : 0;
        l->lruStamp = ++lruClock_;
        return result;
    }
    Line *base = &lines_[static_cast<std::size_t>(setIndex(line)) *
                         params_.ways];
    Line *victim = nullptr;
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (!victim || base[w].lruStamp < victim->lruStamp)
            victim = &base[w];
    }
    if (victim->valid) {
        result.evicted = true;
        result.victimDirty = victim->dirty;
        result.victimLine = victim->tag;
    }
    victim->valid = 1;
    victim->tag = line;
    victim->dirty = dirty ? 1 : 0;
    victim->lruStamp = ++lruClock_;
    return result;
}

L2FillResult
L2Tags::writeback(Addr line)
{
    if (Line *l = find(line)) {
        l->dirty = 1;
        l->lruStamp = ++lruClock_;
        return L2FillResult{};
    }
    return fill(line, true);
}

std::uint64_t
L2Tags::validCount() const
{
    std::uint64_t n = 0;
    for (const auto &l : lines_)
        n += l.valid ? 1 : 0;
    return n;
}

void
L2Tags::checkInvariants() const
{
    for (std::uint32_t s = 0; s < totalSets_; ++s) {
        const Line *base =
            &lines_[static_cast<std::size_t>(s) * params_.ways];
        for (std::uint32_t i = 0; i < params_.ways; ++i) {
            if (!base[i].valid)
                continue;
            SLACKSIM_ASSERT(setIndex(base[i].tag) == s,
                            "L2 line in wrong set");
            for (std::uint32_t j = i + 1; j < params_.ways; ++j) {
                SLACKSIM_ASSERT(!base[j].valid ||
                                    base[j].tag != base[i].tag,
                                "duplicate L2 tag in set ", s);
            }
        }
    }
}

void
L2Tags::save(SnapshotWriter &writer) const
{
    writer.putMarker(0x4c32);
    writer.putVector(lines_);
    writer.put(lruClock_);
}

void
L2Tags::restore(SnapshotReader &reader)
{
    reader.checkMarker(0x4c32);
    lines_ = reader.getVector<Line>();
    lruClock_ = reader.get<std::uint32_t>();
    SLACKSIM_ASSERT(lines_.size() ==
                        static_cast<std::size_t>(totalSets_) *
                            params_.ways,
                    "L2 snapshot geometry mismatch");
}

} // namespace slacksim
