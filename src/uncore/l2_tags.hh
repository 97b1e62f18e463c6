/**
 * @file
 * Banked shared L2 tag array (timing-only), matching the paper's
 * 256KB shared L2 with 8-cycle access latency; inclusive of the L1s,
 * so an L2 eviction back-invalidates the L1 copies.
 */

#ifndef SLACKSIM_UNCORE_L2_TAGS_HH
#define SLACKSIM_UNCORE_L2_TAGS_HH

#include <cstdint>
#include <vector>

#include "util/snapshot.hh"
#include "util/types.hh"

namespace slacksim {

/** L2 configuration. */
struct L2Params
{
    std::uint32_t totalKb = 256;
    std::uint32_t ways = 8;
    std::uint32_t lineBytes = 64;
    std::uint32_t banks = 4;
    Tick hitLatency = 8;    //!< paper: 8-clock L2 access
    Tick missLatency = 100; //!< paper: 100-clock L2 miss (memory)
};

/** Result of an L2 fill. */
struct L2FillResult
{
    bool evicted = false;    //!< a valid victim was displaced
    bool victimDirty = false;
    Addr victimLine = 0;
};

/** The L2 tag array. */
class L2Tags : public Snapshotable
{
  public:
    explicit L2Tags(const L2Params &params);

    /** @return true when @p line is present (touches LRU). */
    bool lookup(Addr line);

    /** @return true when present, without LRU side effects. */
    bool probe(Addr line) const;

    /**
     * Install @p line (after a memory fetch), possibly displacing a
     * victim. @p dirty marks the line dirty immediately (writeback
     * data arriving from an L1).
     */
    L2FillResult fill(Addr line, bool dirty);

    /**
     * Mark @p line dirty (PutM / cache-to-cache writeback landed in
     * L2). If the line is absent it is installed first; the returned
     * result reports any victim.
     */
    L2FillResult writeback(Addr line);

    /** @return the bank index servicing @p line. */
    std::uint32_t bank(Addr line) const;

    /** @return the (hashed) set index of @p line; exposed so tests
     *  and diagnostics can construct conflicting address sets. */
    std::uint32_t setIndexOf(Addr line) const { return setIndex(line); }

    /** @return number of sets per bank. */
    std::uint32_t setsPerBank() const { return setsPerBank_; }

    /** @return number of valid lines (tests). */
    std::uint64_t validCount() const;

    /** Invariant check: no duplicate tags in a set. */
    void checkInvariants() const;

    void save(SnapshotWriter &writer) const override;
    void restore(SnapshotReader &reader) override;

  private:
    struct Line
    {
        Addr tag = 0;
        std::uint8_t valid = 0;
        std::uint8_t dirty = 0;
        std::uint8_t pad[2] = {}; //!< named padding: copied raw
        std::uint32_t lruStamp = 0;
    };

    std::uint32_t setIndex(Addr line) const;
    Line *find(Addr line);
    const Line *find(Addr line) const;

    L2Params params_;
    std::uint32_t lineShift_; //!< log2(lineBytes)
    std::uint32_t setBits_;   //!< log2(totalSets_)
    std::uint32_t setsPerBank_;
    std::uint32_t totalSets_;
    std::vector<Line> lines_;
    std::uint32_t lruClock_ = 0;
};

} // namespace slacksim

#endif // SLACKSIM_UNCORE_L2_TAGS_HH
