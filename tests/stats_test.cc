/**
 * @file
 * Tests for the statistics records, name tables and config parsing.
 */

#include <gtest/gtest.h>

#include "cache/mesi.hh"
#include "core/config.hh"
#include "stats/stats.hh"
#include "uncore/msg.hh"

using namespace slacksim;

TEST(CoreStatsRecord, AddAccumulatesEveryField)
{
    CoreStats a, b;
    a.committedInstrs = 1;
    a.committedLoads = 2;
    a.committedStores = 3;
    a.committedSyncOps = 4;
    a.fetchStallCycles = 5;
    a.robFullCycles = 6;
    a.sbFullCycles = 7;
    a.syncStallCycles = 8;
    a.idleCycles = 9;
    a.l1dHits = 10;
    a.l1dMisses = 11;
    a.l1dMshrMerges = 12;
    a.l1dMshrFullEvents = 13;
    a.l1dWritebacks = 14;
    a.l1dUpgrades = 15;
    a.l1iHits = 16;
    a.l1iMisses = 17;
    a.snoopInvalidations = 18;
    a.snoopDowngrades = 19;
    b = a;
    b.add(a);
    EXPECT_EQ(b.committedInstrs, 2u);
    EXPECT_EQ(b.idleCycles, 18u);
    EXPECT_EQ(b.snoopDowngrades, 38u);
    EXPECT_EQ(b.l1iMisses, 34u);
}

TEST(UncoreStatsRecord, AddAccumulates)
{
    UncoreStats a;
    a.busRequests = 100;
    a.l2Hits = 5;
    a.l2Misses = 7;
    a.lockAcquires = 3;
    a.barrierEpisodes = 2;
    UncoreStats b = a;
    b.add(a);
    EXPECT_EQ(b.busRequests, 200u);
    EXPECT_EQ(b.l2Hits, 10u);
    EXPECT_EQ(b.barrierEpisodes, 4u);
}

TEST(ViolationStatsRecord, TotalAndAdd)
{
    ViolationStats v;
    v.busViolations = 3;
    v.mapViolations = 4;
    EXPECT_EQ(v.total(), 7u);
    ViolationStats w;
    w.add(v);
    w.add(v);
    EXPECT_EQ(w.total(), 14u);
}

TEST(Names, MsgTypesAllPrintable)
{
    for (const MsgType t :
         {MsgType::GetS, MsgType::GetM, MsgType::Upgrade, MsgType::PutM,
          MsgType::LockAcq, MsgType::LockRel, MsgType::BarArrive,
          MsgType::Fill, MsgType::UpgradeAck, MsgType::SnoopInv,
          MsgType::SnoopDown, MsgType::SyncGrant}) {
        EXPECT_STRNE(msgTypeName(t), "unknown");
    }
}

TEST(Names, MsgClassPredicates)
{
    EXPECT_TRUE(isBusRequest(MsgType::GetS));
    EXPECT_TRUE(isBusRequest(MsgType::PutM));
    EXPECT_FALSE(isBusRequest(MsgType::LockAcq));
    EXPECT_FALSE(isBusRequest(MsgType::Fill));
    EXPECT_TRUE(isSyncRequest(MsgType::BarArrive));
    EXPECT_FALSE(isSyncRequest(MsgType::GetM));
    EXPECT_FALSE(isSyncRequest(MsgType::SyncGrant));
}

TEST(Names, MesiHelpers)
{
    EXPECT_STREQ(mesiName(MesiState::Invalid), "I");
    EXPECT_STREQ(mesiName(MesiState::Modified), "M");
    EXPECT_TRUE(canRead(MesiState::Shared));
    EXPECT_FALSE(canRead(MesiState::Invalid));
    EXPECT_TRUE(canWrite(MesiState::Exclusive));
    EXPECT_TRUE(canWrite(MesiState::Modified));
    EXPECT_FALSE(canWrite(MesiState::Shared));
    EXPECT_STREQ(protocolName(CoherenceProtocol::MSI), "MSI");
    EXPECT_STREQ(protocolName(CoherenceProtocol::MESI), "MESI");
}

TEST(Names, SchemeRoundTrip)
{
    for (const SchemeKind kind :
         {SchemeKind::CycleByCycle, SchemeKind::Quantum,
          SchemeKind::Bounded, SchemeKind::Unbounded,
          SchemeKind::Adaptive, SchemeKind::LaxP2P}) {
        EXPECT_EQ(parseScheme(schemeName(kind)), kind);
    }
    EXPECT_EQ(parseScheme("cycle-by-cycle"), SchemeKind::CycleByCycle);
    EXPECT_EQ(parseScheme("slack"), SchemeKind::Bounded);
    EXPECT_EQ(parseScheme("p2p"), SchemeKind::LaxP2P);
}

TEST(Names, UnknownSchemeIsFatal)
{
    EXPECT_DEATH(parseScheme("warp-speed"), "unknown scheme");
}

TEST(ConfigValidation, DefaultsAreValid)
{
    SimConfig config;
    config.workload.numThreads = config.target.numCores;
    config.validate(); // must not die
    SUCCEED();
}

TEST(ConfigValidation, RejectsBadGeometry)
{
    SimConfig config;
    config.workload.numThreads = config.target.numCores;
    config.target.l1d.lineBytes = 32; // mismatched with L2
    EXPECT_DEATH(config.validate(), "line sizes");

    // The issue mask is one 64-bit word; ROB and store-buffer slots
    // are indexed by mask.
    for (const std::uint32_t rob : {128u, 48u, 2u}) {
        SimConfig core;
        core.workload.numThreads = core.target.numCores;
        core.target.core.robSize = rob;
        EXPECT_DEATH(core.validate(), "robSize") << rob;
    }
    SimConfig sb;
    sb.workload.numThreads = sb.target.numCores;
    sb.target.core.sbSize = 6;
    EXPECT_DEATH(sb.validate(), "sbSize");
    sb.target.core.sbSize = 0;
    EXPECT_DEATH(sb.validate(), "sbSize");
    sb.target.core.sbSize = 2;
    sb.target.core.robSize = 16;
    sb.validate(); // the smallest geometry in the tests must not die

    SimConfig quantum;
    quantum.workload.numThreads = quantum.target.numCores;
    quantum.engine.scheme = SchemeKind::Quantum;
    quantum.engine.quantum = 0;
    EXPECT_DEATH(quantum.validate(), "quantum");

    SimConfig burst;
    burst.workload.numThreads = burst.target.numCores;
    burst.engine.burstCycles = 0;
    EXPECT_DEATH(burst.validate(), "burstCycles");
}

TEST(ConfigValidation, RejectsBadAdaptive)
{
    SimConfig config;
    config.workload.numThreads = config.target.numCores;
    config.engine.scheme = SchemeKind::Adaptive;
    config.engine.adaptive.targetViolationRate = 0.0;
    EXPECT_DEATH(config.validate(), "target rate");

    config.engine.adaptive.targetViolationRate = 1e-4;
    config.engine.adaptive.minBound = 100;
    config.engine.adaptive.maxBound = 10;
    EXPECT_DEATH(config.validate(), "bound range");
}
