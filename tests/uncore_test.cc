/**
 * @file
 * Tests for the manager-side uncore: L2 tags, global cache map, sync
 * arbiter, and the full service paths including violation detection
 * and bus timing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cache/mesi.hh"
#include "uncore/uncore.hh"
#include "util/rng.hh"

using namespace slacksim;

namespace {

UncoreParams
smallUncore(std::uint32_t cores = 4)
{
    UncoreParams p;
    p.numCores = cores;
    p.l2.totalKb = 16; // 256 lines: evictions easy to trigger
    p.l2.ways = 4;
    p.l2.banks = 2;
    p.l2.hitLatency = 8;
    p.l2.missLatency = 100;
    p.c2cLatency = 12;
    p.syncLatency = 6;
    p.numLocks = 4;
    p.numBarriers = 2;
    return p;
}

BusMsg
req(MsgType type, CoreId src, Addr addr, Tick ts,
    CacheKind cache = CacheKind::Data)
{
    BusMsg m;
    m.type = type;
    m.src = src;
    m.addr = addr;
    m.ts = ts;
    m.cache = cache;
    if (isSyncRequest(type))
        m.sync = static_cast<std::uint16_t>(addr); // addr = lock id
    static SeqNum seq = 0;
    m.seq = seq++;
    return m;
}

/** Find the first outbound message of a given type. */
const Outbound *
findMsg(const std::vector<Outbound> &out, MsgType type)
{
    for (const auto &o : out)
        if (o.msg.type == type)
            return &o;
    return nullptr;
}

struct UncoreFixture : ::testing::Test
{
    UncoreStats stats;
    ViolationStats violations;
    UncoreParams params = smallUncore();
    Uncore uncore{params, &stats, &violations};
    std::vector<Outbound> out;
};

} // namespace

TEST_F(UncoreFixture, ColdGetSMissesL2AndGrantsExclusive)
{
    const auto r = uncore.service(req(MsgType::GetS, 0, 0x1000, 10), out);
    EXPECT_FALSE(r.any());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].dst, 0u);
    EXPECT_EQ(out[0].msg.type, MsgType::Fill);
    EXPECT_EQ(static_cast<MesiState>(out[0].msg.grantState),
              MesiState::Exclusive);
    // Timing: grant at 11, L2 miss -> ready at 111, response +2.
    EXPECT_EQ(out[0].msg.ts, 113u);
    EXPECT_EQ(stats.l2Misses, 1u);
    EXPECT_EQ(stats.busRequests, 1u);
}

TEST_F(UncoreFixture, SecondGetSHitsL2AndGrantsShared)
{
    uncore.service(req(MsgType::GetS, 0, 0x1000, 10), out);
    out.clear();
    uncore.service(req(MsgType::GetS, 1, 0x1000, 200), out);
    ASSERT_EQ(out.size(), 2u); // downgrade to owner (E) + fill
    const Outbound *down = findMsg(out, MsgType::SnoopDown);
    ASSERT_NE(down, nullptr); // exclusive owner gets downgraded
    EXPECT_EQ(down->dst, 0u);
    const Outbound *fill = findMsg(out, MsgType::Fill);
    ASSERT_NE(fill, nullptr);
    EXPECT_EQ(static_cast<MesiState>(fill->msg.grantState),
              MesiState::Shared);
    EXPECT_EQ(stats.cacheToCacheTransfers, 1u);
}

TEST_F(UncoreFixture, GetMInvalidatesAllSharers)
{
    uncore.service(req(MsgType::GetS, 0, 0x1000, 10), out);
    uncore.service(req(MsgType::GetS, 1, 0x1000, 20), out);
    uncore.service(req(MsgType::GetS, 2, 0x1000, 30), out);
    out.clear();
    uncore.service(req(MsgType::GetM, 3, 0x1000, 40), out);
    int invs = 0;
    for (const auto &o : out)
        if (o.msg.type == MsgType::SnoopInv) {
            ++invs;
            EXPECT_NE(o.dst, 3u);
        }
    EXPECT_EQ(invs, 3);
    const MapEntry *e = uncore.map().find(0x1000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->owner, 3u);
    EXPECT_EQ(e->dSharers, 1ull << 3);
    uncore.map().checkInvariants();
}

TEST_F(UncoreFixture, GetSFromModifiedOwnerGoesCacheToCache)
{
    uncore.service(req(MsgType::GetM, 0, 0x1000, 10), out);
    out.clear();
    uncore.service(req(MsgType::GetS, 1, 0x1000, 50), out);
    const Outbound *down = findMsg(out, MsgType::SnoopDown);
    ASSERT_NE(down, nullptr);
    EXPECT_EQ(down->dst, 0u);
    const Outbound *fill = findMsg(out, MsgType::Fill);
    ASSERT_NE(fill, nullptr);
    // c2c latency 12: grant at 51 -> data at 63, but the response bus
    // is occupied until 113 by the setup GetM's memory fill, so the
    // transfer starts at 113 and lands at 115.
    EXPECT_EQ(fill->msg.ts, 115u);
    const MapEntry *e = uncore.map().find(0x1000);
    EXPECT_EQ(e->owner, invalidCore);
    EXPECT_EQ(e->dSharers, 0b11u);
}

TEST_F(UncoreFixture, UpgradeAcksAndInvalidatesOthers)
{
    uncore.service(req(MsgType::GetS, 0, 0x1000, 10), out);
    uncore.service(req(MsgType::GetS, 1, 0x1000, 20), out);
    out.clear();
    uncore.service(req(MsgType::Upgrade, 0, 0x1000, 30), out);
    ASSERT_NE(findMsg(out, MsgType::UpgradeAck), nullptr);
    const Outbound *inv = findMsg(out, MsgType::SnoopInv);
    ASSERT_NE(inv, nullptr);
    EXPECT_EQ(inv->dst, 1u);
    const MapEntry *e = uncore.map().find(0x1000);
    EXPECT_EQ(e->owner, 0u);
}

TEST_F(UncoreFixture, PutMClearsOwnershipAndDirtiesL2)
{
    uncore.service(req(MsgType::GetM, 0, 0x1000, 10), out);
    out.clear();
    uncore.service(req(MsgType::PutM, 0, 0x1000, 90), out);
    EXPECT_TRUE(out.empty()); // no response to a writeback
    const MapEntry *e = uncore.map().find(0x1000);
    EXPECT_EQ(e->owner, invalidCore);
    EXPECT_EQ(e->dSharers, 0u);
}

TEST_F(UncoreFixture, BusViolationDetectedOnTimestampInversion)
{
    uncore.service(req(MsgType::GetS, 0, 0x1000, 100), out);
    EXPECT_EQ(violations.busViolations, 0u);
    const auto r = uncore.service(req(MsgType::GetS, 1, 0x2000, 50), out);
    EXPECT_TRUE(r.busViolation);
    EXPECT_EQ(violations.busViolations, 1u);
    // Monotone timestamps never violate.
    uncore.service(req(MsgType::GetS, 2, 0x3000, 100), out);
    EXPECT_EQ(violations.busViolations, 1u);
}

TEST_F(UncoreFixture, MapViolationIsPerLine)
{
    uncore.service(req(MsgType::GetS, 0, 0x1000, 100), out);
    // Different line, older timestamp: bus violation but NOT a map
    // violation (that line's monitor is fresh).
    auto r = uncore.service(req(MsgType::GetS, 1, 0x2000, 50), out);
    EXPECT_TRUE(r.busViolation);
    EXPECT_FALSE(r.mapViolation);
    // Same line as the first, older timestamp: map violation.
    r = uncore.service(req(MsgType::GetM, 2, 0x1000, 60), out);
    EXPECT_TRUE(r.mapViolation);
    EXPECT_EQ(violations.mapViolations, 1u);
}

TEST_F(UncoreFixture, ViolationCountingCanBeSuspended)
{
    uncore.service(req(MsgType::GetS, 0, 0x1000, 100), out);
    uncore.setViolationCounting(false);
    const auto r =
        uncore.service(req(MsgType::GetS, 1, 0x1000, 50), out);
    EXPECT_TRUE(r.busViolation); // still detected...
    EXPECT_EQ(violations.total(), 0u); // ...but not counted
    uncore.setViolationCounting(true);
}

TEST_F(UncoreFixture, RequestBusSerializesGrants)
{
    // Two requests with the same timestamp: the second is delayed by
    // the request bus occupancy and its response by the response bus.
    uncore.service(req(MsgType::GetS, 0, 0x10000, 10), out);
    out.clear();
    uncore.service(req(MsgType::GetS, 1, 0x10040, 10), out);
    // grant1 = 11, grant2 = max(11, 12) = 12; different banks so no
    // bank conflict; miss -> 112; response bus busy until 113 from
    // the first response, so resp2 = max(112,113)+2 = 115.
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].msg.ts, 115u);
    EXPECT_EQ(stats.busQueueingCycles, 1u);
}

TEST_F(UncoreFixture, L2EvictionBackInvalidatesL1Copies)
    {
    // Fill one L2 set (4 ways) with conflicting tags until the first
    // line is evicted; the set index is hashed, so discover the
    // conflicting addresses instead of computing a stride.
    std::vector<Addr> lines{0x0};
    const std::uint32_t set = uncore.l2().setIndexOf(0x0);
    for (Addr a = 64; lines.size() < 5; a += 64) {
        if (uncore.l2().setIndexOf(a) == set)
            lines.push_back(a);
    }
    uncore.service(req(MsgType::GetS, 0, lines[0], 1), out);
    for (int i = 1; i <= 4; ++i) {
        out.clear();
        uncore.service(req(MsgType::GetS, 1, lines[i], 10 + i), out);
    }
    // The 5th fill in the set evicts line 0x0, which core 0 holds.
    const Outbound *inv = findMsg(out, MsgType::SnoopInv);
    ASSERT_NE(inv, nullptr);
    EXPECT_EQ(inv->dst, 0u);
    EXPECT_GE(stats.backInvalidations, 1u);
    const MapEntry *e = uncore.map().find(0x0);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->empty());
}

TEST_F(UncoreFixture, InstructionFetchSharersTracked)
{
    uncore.service(req(MsgType::GetS, 0, 0x7000, 5, CacheKind::Instr),
                   out);
    const MapEntry *e = uncore.map().find(0x7000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->iSharers, 1u);
    EXPECT_EQ(e->dSharers, 0u);
    // Instruction fills are never exclusive.
    EXPECT_EQ(static_cast<MesiState>(out[0].msg.grantState),
              MesiState::Shared);
}

TEST_F(UncoreFixture, LockGrantAndFifoQueueing)
{
    uncore.service(req(MsgType::LockAcq, 0, 0, 10), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].msg.type, MsgType::SyncGrant);
    EXPECT_EQ(out[0].msg.ts, 16u); // 10 + syncLatency

    out.clear();
    uncore.service(req(MsgType::LockAcq, 1, 0, 20), out);
    uncore.service(req(MsgType::LockAcq, 2, 0, 30), out);
    EXPECT_TRUE(out.empty()); // queued
    EXPECT_EQ(stats.lockQueued, 2u);

    uncore.service(req(MsgType::LockRel, 0, 0, 100), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].dst, 1u); // FIFO order
    EXPECT_EQ(out[0].msg.ts, 106u); // max(20,100)+6

    out.clear();
    uncore.service(req(MsgType::LockRel, 1, 0, 150), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].dst, 2u);
}

TEST_F(UncoreFixture, BarrierReleasesAllAtMaxArrival)
{
    uncore.service(req(MsgType::BarArrive, 0, 0, 10), out);
    uncore.service(req(MsgType::BarArrive, 1, 0, 50), out);
    uncore.service(req(MsgType::BarArrive, 2, 0, 30), out);
    EXPECT_TRUE(out.empty());
    uncore.service(req(MsgType::BarArrive, 3, 0, 40), out);
    ASSERT_EQ(out.size(), 4u);
    for (const auto &o : out)
        EXPECT_EQ(o.msg.ts, 56u); // max(arrivals)=50 + 6
    EXPECT_EQ(stats.barrierEpisodes, 1u);
    // Barrier is reusable immediately.
    out.clear();
    for (CoreId c = 0; c < 4; ++c)
        uncore.service(req(MsgType::BarArrive, c, 0, 100 + c), out);
    EXPECT_EQ(out.size(), 4u);
    EXPECT_EQ(stats.barrierEpisodes, 2u);
}

TEST_F(UncoreFixture, SyncRequestsCauseNoBusViolations)
{
    uncore.service(req(MsgType::GetS, 0, 0x1000, 100), out);
    uncore.service(req(MsgType::LockAcq, 1, 0, 10), out);
    EXPECT_EQ(violations.busViolations, 0u);
}

TEST_F(UncoreFixture, SnapshotRoundTrip)
{
    uncore.service(req(MsgType::GetS, 0, 0x1000, 10), out);
    uncore.service(req(MsgType::GetM, 1, 0x2000, 20), out);
    uncore.service(req(MsgType::LockAcq, 2, 1, 30), out);
    uncore.service(req(MsgType::LockAcq, 3, 1, 40), out); // queued

    SnapshotWriter w;
    uncore.save(w);
    const UncoreStats stats_before = stats;

    // Mutate.
    uncore.service(req(MsgType::GetM, 2, 0x1000, 50), out);
    uncore.service(req(MsgType::LockRel, 2, 1, 60), out);

    SnapshotReader r(w.bytes());
    uncore.restore(r);
    EXPECT_TRUE(r.exhausted());
    const MapEntry *e = uncore.map().find(0x1000);
    ASSERT_NE(e, nullptr);
    // Core 0's exclusive GetS made it the owner; core 2's post-
    // snapshot GetM must not have stuck after the restore.
    EXPECT_EQ(e->owner, 0u);
    EXPECT_EQ(uncore.map().find(0x2000)->owner, 1u);
    EXPECT_TRUE(uncore.sync().lockHeld(1));
    EXPECT_EQ(uncore.sync().lockHolder(1), 2u);
    EXPECT_EQ(uncore.sync().lockQueueDepth(1), 1u);
    EXPECT_EQ(stats.busRequests, stats_before.busRequests);
}

TEST(GlobalCacheMap, MonitorAndInvariants)
{
    GlobalCacheMap map;
    MapEntry &e = map.entry(0x40);
    EXPECT_FALSE(map.recordTransition(e, 10, 0));
    EXPECT_EQ(e.lastTouch, 0u);
    EXPECT_FALSE(map.recordTransition(e, 10, 1)); // equal is fine
    EXPECT_EQ(e.lastTouch, 1u);
    EXPECT_TRUE(map.recordTransition(e, 5, 2)); // older -> violation
    // Violations leave both the monitor and the attribution alone.
    EXPECT_EQ(e.lastTouch, 1u);
    EXPECT_EQ(e.monitorTs, 10u);
    EXPECT_FALSE(map.recordTransition(e, 20, 3));
    EXPECT_EQ(e.lastTouch, 3u);
    e.owner = 2;
    e.dSharers = 1ull << 2;
    map.checkInvariants();
    EXPECT_EQ(map.size(), 1u);
    e.owner = invalidCore;
    e.dSharers = 0;
    map.eraseIfEmpty(0x40);
    EXPECT_EQ(map.size(), 0u);
}

namespace {

/**
 * Lines in the code, shared and private regions (the AddressSpace
 * bases for threads 0 and 3), so that they land on separate map
 * pages, plus the last line of one page and the first of the next.
 */
std::vector<Addr>
regionLines()
{
    std::vector<Addr> lines;
    for (const Addr t : {0ull, 3ull}) {
        lines.push_back(0x1'0000'0000ull + t * 0x1000'0000ull);
        lines.push_back(0x8000'0000'0000ull + t * 0x4000'0000ull + 64);
    }
    lines.push_back(0x4000'0000'0000ull);
    lines.push_back(0x4000'0000'0000ull + 255 * 64);
    lines.push_back(0x4000'0000'0000ull + 256 * 64);
    return lines;
}

/** A distinct, non-empty entry per line. */
MapEntry
entryFor(Addr line)
{
    MapEntry e;
    e.dSharers = (line >> 6) | 1;
    e.iSharers = line >> 12;
    e.lastTouch = static_cast<CoreId>(line % 7);
    e.monitorTs = line ^ 0x5a5a;
    return e;
}

/** The snapshot layout every map must produce: the marker, the line
 *  count, then each (line, entry) pair in ascending address order. */
std::vector<std::uint8_t>
sortedLayout(const std::map<Addr, MapEntry> &entries)
{
    SnapshotWriter w;
    w.putMarker(0x6d41);
    w.put<std::uint64_t>(entries.size());
    for (const auto &[line, e] : entries) {
        w.put(line);
        w.put(e);
    }
    return w.bytes();
}

std::vector<std::uint8_t>
saved(const GlobalCacheMap &map)
{
    SnapshotWriter w;
    map.save(w);
    return w.bytes();
}

} // namespace

TEST(GlobalCacheMap, FindOfAnAbsentLineCreatesNothing)
{
    GlobalCacheMap map;
    const std::vector<Addr> lines = regionLines();
    map.entry(lines[0]);
    for (std::size_t i = 1; i < lines.size(); ++i)
        EXPECT_EQ(map.find(lines[i]), nullptr) << std::hex << lines[i];
    // So is a neighbour on the page that holds a line.
    EXPECT_EQ(map.find(lines[0] + 64), nullptr);
    EXPECT_EQ(map.size(), 1u);
    EXPECT_NE(map.find(lines[0]), nullptr);
}

TEST(GlobalCacheMap, EntriesStayPutWhileOtherPagesGrow)
{
    GlobalCacheMap map;
    const std::vector<Addr> lines = regionLines();
    std::vector<MapEntry *> refs;
    for (const Addr line : lines) {
        MapEntry &e = map.entry(line);
        e = entryFor(line);
        refs.push_back(&e);
        // Every earlier reference is still the same, intact entry.
        for (std::size_t i = 0; i < refs.size(); ++i) {
            EXPECT_EQ(map.find(lines[i]), refs[i]);
            EXPECT_EQ(refs[i]->monitorTs, entryFor(lines[i]).monitorTs);
        }
        EXPECT_EQ(&map.entry(line), &e); // no second entry
    }
    EXPECT_EQ(map.size(), lines.size());
}

TEST(GlobalCacheMap, SaveIsTheSortedAddressLayout)
{
    GlobalCacheMap map;
    std::map<Addr, MapEntry> expect;
    // Insert in descending order so that the save must sort.
    std::vector<Addr> lines = regionLines();
    std::sort(lines.rbegin(), lines.rend());
    for (const Addr line : lines) {
        map.entry(line) = entryFor(line);
        expect[line] = entryFor(line);
    }
    const std::vector<std::uint8_t> bytes = saved(map);
    EXPECT_EQ(bytes, sortedLayout(expect));

    // The same bytes after restoring into a map that held other
    // lines, and into a fresh one.
    GlobalCacheMap other;
    other.entry(0x2'0000'0040ull) = entryFor(0x40);
    other.entry(lines.back()) = entryFor(0x80);
    for (GlobalCacheMap *target : {&other, &map}) {
        SnapshotReader r(bytes);
        target->restore(r);
        EXPECT_TRUE(r.exhausted());
        EXPECT_EQ(saved(*target), bytes);
        EXPECT_EQ(target->size(), lines.size());
    }
    GlobalCacheMap fresh;
    SnapshotReader r(bytes);
    fresh.restore(r);
    EXPECT_EQ(saved(fresh), bytes);
    EXPECT_EQ(other.find(0x2'0000'0040ull), nullptr);
}

TEST(GlobalCacheMap, EraseKeepsOtherLinesFindable)
{
    GlobalCacheMap map;
    const std::vector<Addr> lines = regionLines();
    for (const Addr line : lines)
        map.entry(line);
    map.entry(lines[2]).owner = 1; // not empty: must survive an erase
    map.entry(lines[2]).dSharers = 1ull << 1;
    for (std::size_t i = 0; i < lines.size(); i += 2)
        map.eraseIfEmpty(lines[i]);
    EXPECT_EQ(map.size(), lines.size() / 2 + 1);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const bool kept = i % 2 == 1 || i == 2;
        EXPECT_EQ(map.find(lines[i]) != nullptr, kept) << i;
    }
    // A re-created line starts empty.
    EXPECT_TRUE(map.entry(lines[0]).empty());
    EXPECT_EQ(map.entry(lines[0]).monitorTs, 0u);
}

TEST(GlobalCacheMapDeath, CheckInvariantsVisitsEveryLine)
{
    for (const Addr bad : regionLines()) {
        GlobalCacheMap map;
        for (const Addr line : regionLines())
            map.entry(line);
        map.checkInvariants();
        MapEntry &e = map.entry(bad);
        e.owner = 1;
        e.dSharers = (1ull << 1) | (1ull << 2); // a foreign D sharer
        EXPECT_DEATH(map.checkInvariants(), "foreign D sharers")
            << std::hex << bad;
    }
}

namespace {

/** Find addresses beyond `start` mapping to the same L2 set (the
 *  index is hashed, so conflicts are discovered, not computed). */
std::vector<Addr>
conflictingLines(const L2Tags &l2, Addr start, std::size_t count)
{
    std::vector<Addr> lines{start};
    const std::uint32_t set = l2.setIndexOf(start);
    for (Addr a = start + 64; lines.size() < count; a += 64) {
        if (l2.setIndexOf(a) == set)
            lines.push_back(a);
    }
    return lines;
}

} // namespace

TEST(L2Tags, FillLookupEvict)
{
    L2Params p;
    p.totalKb = 16;
    p.ways = 2;
    p.banks = 2;
    L2Tags l2(p);
    const auto lines = conflictingLines(l2, 0x0, 3);
    EXPECT_FALSE(l2.probe(lines[0]));
    EXPECT_FALSE(l2.fill(lines[0], false).evicted);
    EXPECT_TRUE(l2.lookup(lines[0]));
    EXPECT_FALSE(l2.fill(lines[1], true).evicted);
    l2.lookup(lines[0]); // make the dirty line LRU victim
    const auto fill = l2.fill(lines[2], false);
    EXPECT_TRUE(fill.evicted);
    EXPECT_TRUE(fill.victimDirty);
    EXPECT_EQ(fill.victimLine, lines[1]);
    l2.checkInvariants();
}

TEST(L2Tags, IndexHashSpreadsPowerOfTwoStrides)
{
    // The pathological pattern that motivated the hash: large
    // power-of-two strides (per-core code/private regions) must not
    // all land in one set.
    L2Params p;
    L2Tags l2(p);
    std::set<std::uint32_t> sets;
    for (Addr t = 0; t < 16; ++t)
        sets.insert(l2.setIndexOf(0x100000000ull + t * 0x10000000ull));
    EXPECT_GT(sets.size(), 8u);
}

TEST(L2Tags, WritebackInstallsWhenAbsent)
{
    L2Params p;
    p.totalKb = 16;
    p.ways = 2;
    p.banks = 2;
    L2Tags l2(p);
    l2.writeback(0x1000);
    EXPECT_TRUE(l2.probe(0x1000));
    EXPECT_EQ(l2.validCount(), 1u);
}

TEST(L2Tags, BankSelection)
{
    L2Params p;
    p.banks = 4;
    L2Tags l2(p);
    EXPECT_EQ(l2.bank(0x00), 0u);
    EXPECT_EQ(l2.bank(0x40), 1u);
    EXPECT_EQ(l2.bank(0x80), 2u);
    EXPECT_EQ(l2.bank(0xc0), 3u);
    EXPECT_EQ(l2.bank(0x100), 0u);
}

TEST(SyncArbiterDeath, DoubleBarrierArrivalPanics)
{
    UncoreStats stats;
    SyncArbiter arb(1, 1, 4, 6, &stats);
    std::vector<SyncGrantMsg> out;
    BusMsg m;
    m.type = MsgType::BarArrive;
    m.src = 0;
    m.sync = 0;
    arb.handle(m, out);
    EXPECT_DEATH(arb.handle(m, out), "arrives twice");
}

TEST(SyncArbiterDeath, ReleasingUnheldLockPanics)
{
    UncoreStats stats;
    SyncArbiter arb(1, 1, 4, 6, &stats);
    std::vector<SyncGrantMsg> out;
    BusMsg m;
    m.type = MsgType::LockRel;
    m.src = 0;
    m.sync = 0;
    EXPECT_DEATH(arb.handle(m, out), "does not hold");
}

TEST(Protocol, MsiNeverGrantsExclusive)
{
    UncoreStats stats;
    ViolationStats violations;
    UncoreParams params = smallUncore();
    params.protocol = CoherenceProtocol::MSI;
    Uncore uncore(params, &stats, &violations);
    std::vector<Outbound> out;
    uncore.service(req(MsgType::GetS, 0, 0x1000, 10), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(static_cast<MesiState>(out[0].msg.grantState),
              MesiState::Shared);
    // Under MSI the sole reader is not an owner: a second GetS needs
    // no snoop-downgrade.
    out.clear();
    uncore.service(req(MsgType::GetS, 1, 0x1000, 20), out);
    EXPECT_EQ(findMsg(out, MsgType::SnoopDown), nullptr);
}

TEST(Protocol, MesiGrantsExclusiveToSoleReader)
{
    UncoreStats stats;
    ViolationStats violations;
    UncoreParams params = smallUncore();
    params.protocol = CoherenceProtocol::MESI;
    Uncore uncore(params, &stats, &violations);
    std::vector<Outbound> out;
    uncore.service(req(MsgType::GetS, 0, 0x1000, 10), out);
    EXPECT_EQ(static_cast<MesiState>(out[0].msg.grantState),
              MesiState::Exclusive);
}

TEST_F(UncoreFixture, BusQueueHistogramTracksEveryRequest)
{
    uncore.service(req(MsgType::GetS, 0, 0x1000, 10), out);
    uncore.service(req(MsgType::GetS, 1, 0x2000, 10), out);
    uncore.service(req(MsgType::GetS, 2, 0x3000, 10), out);
    EXPECT_EQ(uncore.busQueueHistogram().count(), 3u);
    // The first request waited 0 cycles; the later ones queued.
    EXPECT_EQ(uncore.busQueueHistogram().min(), 0u);
    EXPECT_EQ(uncore.busQueueHistogram().sum(),
              stats.busQueueingCycles);
}

namespace {

/** Request-to-delivery gaps of one serviced request, by message type
 *  (the least gap when a type is delivered more than once). */
using Gaps = std::map<MsgType, Tick>;

/**
 * Lookahead cases: every delivery path at the default latencies and
 * with sync latency 1 and 0. Each case services one request on an
 * idle bus, long after its setup, so every delivery lands exactly on
 * its path's bound.
 */
class UncoreLookahead : public ::testing::TestWithParam<Tick>
{
  protected:
    static UncoreParams
    paramsFor(Tick sync_latency)
    {
        UncoreParams p = smallUncore();
        p.syncLatency = sync_latency;
        return p;
    }

    /** Service @p msg; check every delivery meets the lookahead.
     *  @return the gap of each delivered message type. */
    Gaps
    serviceGaps(const BusMsg &msg)
    {
        out.clear();
        uncore.service(msg, out);
        Gaps gaps;
        for (const Outbound &o : out) {
            EXPECT_GE(o.msg.ts, msg.ts + uncore.lookahead())
                << msgTypeName(o.msg.type);
            const Tick gap = o.msg.ts - msg.ts;
            auto [it, fresh] = gaps.emplace(o.msg.type, gap);
            if (!fresh)
                it->second = std::min(it->second, gap);
        }
        return gaps;
    }

    /** Service a setup request whose deliveries do not matter. */
    void
    setup(const BusMsg &msg)
    {
        out.clear();
        uncore.service(msg, out);
    }

    /** @return five lines that share one L2 set (4 ways). */
    std::vector<Addr>
    conflictingLines() const
    {
        std::vector<Addr> lines{0x0};
        const std::uint32_t set = uncore.l2().setIndexOf(0x0);
        for (Addr a = 64; lines.size() < 5; a += 64) {
            if (uncore.l2().setIndexOf(a) == set)
                lines.push_back(a);
        }
        return lines;
    }

    const Tick sync = GetParam();
    const Tick hit = 1 + 8 + 2;   // grant, L2 hit, response bus
    const Tick miss = 1 + 100 + 2; // grant, memory, response bus
    const Tick c2c = 1 + 12 + 2;   // grant, c2c transfer, response bus
    UncoreStats stats;
    ViolationStats violations;
    UncoreParams params = paramsFor(GetParam());
    Uncore uncore{params, &stats, &violations};
    std::vector<Outbound> out;
};

} // namespace

TEST_P(UncoreLookahead, DerivedFromTheFastestPath)
{
    // Snoops at grant + 1 bound it unless sync grants are faster.
    EXPECT_EQ(uncore.lookahead(), std::min<Tick>(2, sync));
    UncoreParams fast = params;
    fast.l2.hitLatency = 0;
    fast.busResponseCycles = 0;
    fast.syncLatency = 9;
    EXPECT_EQ(Uncore(fast, &stats, &violations).lookahead(), 1u);
}

TEST_P(UncoreLookahead, GetSL2Hit)
{
    setup(req(MsgType::GetM, 0, 0x1000, 10));
    setup(req(MsgType::PutM, 0, 0x1000, 20)); // in L2, no owner
    EXPECT_EQ(serviceGaps(req(MsgType::GetS, 1, 0x1000, 1000)),
              (Gaps{{MsgType::Fill, hit}}));
}

TEST_P(UncoreLookahead, GetSL2Miss)
{
    EXPECT_EQ(serviceGaps(req(MsgType::GetS, 0, 0x1000, 1000)),
              (Gaps{{MsgType::Fill, miss}}));
}

TEST_P(UncoreLookahead, GetSCacheToCache)
{
    setup(req(MsgType::GetM, 0, 0x1000, 10));
    EXPECT_EQ(serviceGaps(req(MsgType::GetS, 1, 0x1000, 1000)),
              (Gaps{{MsgType::Fill, c2c}, {MsgType::SnoopDown, 2}}));
}

TEST_P(UncoreLookahead, GetMWithSharers)
{
    setup(req(MsgType::GetS, 0, 0x1000, 10));
    setup(req(MsgType::GetS, 1, 0x1000, 20));
    EXPECT_EQ(serviceGaps(req(MsgType::GetM, 2, 0x1000, 1000)),
              (Gaps{{MsgType::Fill, hit}, {MsgType::SnoopInv, 2}}));
}

TEST_P(UncoreLookahead, UpgradeWithSharers)
{
    setup(req(MsgType::GetS, 0, 0x1000, 10));
    setup(req(MsgType::GetS, 1, 0x1000, 20));
    EXPECT_EQ(serviceGaps(req(MsgType::Upgrade, 0, 0x1000, 1000)),
              (Gaps{{MsgType::UpgradeAck, 3}, {MsgType::SnoopInv, 2}}));
}

TEST_P(UncoreLookahead, PutMThatBackInvalidates)
{
    // A writeback of a line the L2 no longer holds installs it and
    // evicts the set's LRU line, which core 1 still caches.
    const std::vector<Addr> lines = conflictingLines();
    for (int i = 0; i < 4; ++i)
        setup(req(MsgType::GetS, 1, lines[i], 10 + i));
    EXPECT_EQ(serviceGaps(req(MsgType::PutM, 0, lines[4], 1000)),
              (Gaps{{MsgType::SnoopInv, 2}}));
}

TEST_P(UncoreLookahead, FillThatBackInvalidates)
{
    const std::vector<Addr> lines = conflictingLines();
    setup(req(MsgType::GetS, 0, lines[0], 10));
    for (int i = 1; i < 4; ++i)
        setup(req(MsgType::GetS, 1, lines[i], 10 + i));
    EXPECT_EQ(serviceGaps(req(MsgType::GetS, 1, lines[4], 1000)),
              (Gaps{{MsgType::Fill, miss}, {MsgType::SnoopInv, 2}}));
}

TEST_P(UncoreLookahead, LockAcquireAndRelease)
{
    EXPECT_EQ(serviceGaps(req(MsgType::LockAcq, 0, 0, 1000)),
              (Gaps{{MsgType::SyncGrant, sync}}));
    setup(req(MsgType::LockAcq, 1, 0, 1010)); // queued
    // The release hands the lock to the waiter.
    EXPECT_EQ(serviceGaps(req(MsgType::LockRel, 0, 0, 2000)),
              (Gaps{{MsgType::SyncGrant, sync}}));
}

TEST_P(UncoreLookahead, Barrier)
{
    for (CoreId c = 0; c < 3; ++c)
        setup(req(MsgType::BarArrive, c, 0, 10 + c));
    EXPECT_EQ(serviceGaps(req(MsgType::BarArrive, 3, 0, 1000)),
              (Gaps{{MsgType::SyncGrant, sync}}));
    EXPECT_EQ(out.size(), 4u);
}

INSTANTIATE_TEST_SUITE_P(SyncLatencies, UncoreLookahead,
                         ::testing::Values<Tick>(6, 1, 0),
                         [](const auto &info) {
                             return "sync" + std::to_string(info.param);
                         });
