/**
 * @file
 * Unit tests for the util layer: RNG, SPSC queue (capacity, wrap-around
 * and slot residency), snapshots, JSON escaping, encoding and number
 * conversion, options parsing and table formatting.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "stats/table.hh"
#include "uncore/msg.hh"
#include "util/json.hh"
#include "util/json_parse.hh"
#include "util/options.hh"
#include "util/rng.hh"
#include "util/snapshot.hh"
#include "util/spsc_queue.hh"

using namespace slacksim;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.next64() == b.next64() ? 1 : 0;
    EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, InRangeInclusive)
{
    Rng r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 20000; ++i) {
        const auto v = r.inRange(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        saw_lo |= v == 3;
        saw_hi |= v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, StateRoundTrip)
{
    Rng a(99);
    a.next64();
    const auto state = a.rawState();
    const auto expect = a.next64();
    Rng b(1);
    b.setRawState(state);
    EXPECT_EQ(b.next64(), expect);
}

TEST(SpscQueue, PushPopFifoOrder)
{
    SpscQueue<int> q(8);
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(q.push(i));
    int v;
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(q.pop(v));
        EXPECT_EQ(v, i);
    }
    EXPECT_FALSE(q.pop(v));
}

TEST(SpscQueue, FullnessAndCapacity)
{
    SpscQueue<int> q(4);
    std::size_t pushed = 0;
    while (q.push(static_cast<int>(pushed)))
        ++pushed;
    EXPECT_EQ(pushed, q.capacity());
    EXPECT_TRUE(q.full());
    int v;
    EXPECT_TRUE(q.pop(v));
    EXPECT_FALSE(q.full());
}

TEST(SpscQueue, FrontPeeksWithoutRemoving)
{
    SpscQueue<int> q(8);
    EXPECT_EQ(q.front(), nullptr);
    q.push(42);
    ASSERT_NE(q.front(), nullptr);
    EXPECT_EQ(*q.front(), 42);
    EXPECT_EQ(q.size(), 1u);
    q.popFront();
    EXPECT_TRUE(q.empty());
}

TEST(SpscQueue, QuiescedContentsRoundTrip)
{
    SpscQueue<int> q(16);
    for (int i = 0; i < 10; ++i)
        q.push(i);
    int v;
    q.pop(v);
    q.pop(v);
    const auto contents = q.quiescedContents();
    ASSERT_EQ(contents.size(), 8u);
    EXPECT_EQ(contents.front(), 2);
    EXPECT_EQ(contents.back(), 9);

    SpscQueue<int> r(16);
    r.quiescedAssign(contents);
    for (int i = 2; i < 10; ++i) {
        ASSERT_TRUE(r.pop(v));
        EXPECT_EQ(v, i);
    }
    EXPECT_TRUE(r.empty());
}

namespace {

/** Push @p skew elements through @p q so that its indices sit
 *  @p skew slots into the ring. */
void
skewIndices(SpscQueue<int> &q, std::size_t skew)
{
    int v = 0;
    for (std::size_t i = 0; i < skew; ++i) {
        ASSERT_TRUE(q.push(-1));
        ASSERT_TRUE(q.pop(v));
    }
}

/** @return this process's resident set (VmRSS) in KiB. */
std::size_t
residentKib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmRSS:", 0) == 0)
            return std::stoul(line.substr(6));
    }
    return 0;
}

} // namespace

TEST(SpscQueue, CapacityIsTheRequestRoundedUpToAPowerOfTwo)
{
    for (const std::size_t requested :
         {1u, 2u, 3u, 4u, 5u, 63u, 64u, 100u, 4096u, 4097u}) {
        SpscQueue<int> q(requested);
        EXPECT_EQ(q.capacity(), std::bit_ceil(requested)) << requested;
    }
}

TEST(SpscQueue, StopsExactlyAtCapacityAcrossWrapAround)
{
    // Every start position in the ring: push, full and hasFreeSpace
    // all agree that exactly capacity() elements fit.
    constexpr std::size_t cap = 8;
    for (std::size_t skew = 0; skew <= 2 * cap; ++skew) {
        SpscQueue<int> q(cap);
        ASSERT_EQ(q.capacity(), cap);
        skewIndices(q, skew);
        for (std::size_t i = 0; i < cap; ++i) {
            EXPECT_FALSE(q.full()) << "skew " << skew << " at " << i;
            EXPECT_TRUE(q.hasFreeSpace(cap - i));
            EXPECT_FALSE(q.hasFreeSpace(cap - i + 1));
            ASSERT_TRUE(q.push(static_cast<int>(i)));
        }
        EXPECT_TRUE(q.full()) << "skew " << skew;
        EXPECT_FALSE(q.hasFreeSpace(1));
        EXPECT_TRUE(q.hasFreeSpace(0));
        EXPECT_FALSE(q.push(99));
        EXPECT_EQ(q.size(), cap);
        int v = -1;
        for (std::size_t i = 0; i < cap; ++i) {
            ASSERT_TRUE(q.pop(v));
            EXPECT_EQ(v, static_cast<int>(i));
        }
        EXPECT_TRUE(q.empty());
    }
}

TEST(SpscQueue, QuiescedRoundTripOfAFullRing)
{
    constexpr std::size_t cap = 16;
    SpscQueue<int> q(cap);
    skewIndices(q, 11); // the contents wrap past the ring's end
    for (std::size_t i = 0; i < cap; ++i)
        ASSERT_TRUE(q.push(static_cast<int>(100 + i)));
    ASSERT_TRUE(q.full());
    const std::vector<int> contents = q.quiescedContents();
    ASSERT_EQ(contents.size(), cap);
    for (std::size_t i = 0; i < cap; ++i)
        EXPECT_EQ(contents[i], static_cast<int>(100 + i));

    SpscQueue<int> r(cap);
    skewIndices(r, 5);
    r.quiescedAssign(contents);
    EXPECT_TRUE(r.full());
    EXPECT_FALSE(r.push(0));
    EXPECT_EQ(r.quiescedContents(), contents);
    int v = -1;
    for (std::size_t i = 0; i < cap; ++i) {
        ASSERT_TRUE(r.pop(v));
        EXPECT_EQ(v, static_cast<int>(100 + i));
    }
    EXPECT_TRUE(r.empty());
}

TEST(SpscQueue, SlotsBecomeResidentOnlyWhereWritten)
{
    // 1 Mi messages: 40 MiB of slots, more than this process has
    // allocated before, so the ring gets fresh pages. Building it and
    // carrying a few messages must not make the whole ring resident.
    constexpr std::size_t slots = std::size_t{1} << 20;
    const std::size_t ring_kib = slots * sizeof(BusMsg) / 1024;
    const std::size_t before = residentKib();
    ASSERT_GT(before, 0u) << "no VmRSS in /proc/self/status";

    SpscQueue<BusMsg> q(slots);
    ASSERT_EQ(q.capacity(), slots);
    BusMsg msg;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        msg.seq = i;
        ASSERT_TRUE(q.push(msg));
    }
    const std::size_t after = residentKib();
    EXPECT_LT(after, before + ring_kib / 8)
        << "VmRSS grew from " << before << " to " << after
        << " KiB for a " << ring_kib << " KiB ring";
    for (std::uint64_t i = 0; i < 1000; ++i) {
        ASSERT_TRUE(q.pop(msg));
        EXPECT_EQ(msg.seq, i);
    }
}

TEST(SpscQueue, TwoThreadStress)
{
    SpscQueue<std::uint64_t> q(256);
    constexpr std::uint64_t count = 200000;
    std::thread producer([&] {
        for (std::uint64_t i = 0; i < count;) {
            if (q.push(i))
                ++i;
        }
    });
    std::uint64_t expect = 0;
    std::uint64_t v;
    while (expect < count) {
        if (q.pop(v)) {
            ASSERT_EQ(v, expect);
            ++expect;
        }
    }
    producer.join();
    EXPECT_TRUE(q.empty());
}

TEST(Snapshot, ScalarAndVectorRoundTrip)
{
    SnapshotWriter w;
    w.putMarker(1);
    w.put<std::uint32_t>(0xdeadbeef);
    w.put<std::int64_t>(-325);
    std::vector<std::uint16_t> vec = {1, 2, 3, 4, 5};
    w.putVector(vec);
    w.putMarker(2);

    SnapshotReader r(w.bytes());
    r.checkMarker(1);
    EXPECT_EQ(r.get<std::uint32_t>(), 0xdeadbeefu);
    EXPECT_EQ(r.get<std::int64_t>(), -325);
    EXPECT_EQ(r.getVector<std::uint16_t>(), vec);
    r.checkMarker(2);
    EXPECT_TRUE(r.exhausted());
}

TEST(Snapshot, EmptyVector)
{
    SnapshotWriter w;
    w.putVector(std::vector<int>{});
    SnapshotReader r(w.bytes());
    EXPECT_TRUE(r.getVector<int>().empty());
    EXPECT_TRUE(r.exhausted());
}

TEST(Json, AsUintChecksTheRangeBeforeCasting)
{
    EXPECT_EQ(json::parse("0").asUint(), 0u);
    EXPECT_EQ(json::parse("4096").asUint(), 4096u);
    // The largest double below 2^64.
    EXPECT_EQ(json::parse("18446744073709549568").asUint(),
              18446744073709549568ull);
    for (const char *bad :
         {"-1", "1e20", "18446744073709551616", "2.5", "-0.5", "1e999"}) {
        EXPECT_THROW(json::parse(bad).asUint(), json::ParseError) << bad;
    }
    EXPECT_THROW(json::parse("\"7\"").asUint(), json::ParseError);
    // NaN cannot be written in JSON, but a DOM can hold one.
    json::Value nan = json::parse("0");
    nan.number = std::nan("");
    EXPECT_THROW(nan.asUint(), json::ParseError);
    EXPECT_FALSE(json::isUint64(std::numeric_limits<double>::infinity()));
}

TEST(Json, EscapeAndEncodeRoundTripThroughTheParser)
{
    // Quote, backslash, newline, tab, carriage return and a control
    // byte the escaper has no name for.
    const std::string nasty = "q\"b\\n\nt\tr\rc\x01 end";
    EXPECT_EQ(json::escape(nasty), R"(q\"b\\n\nt\tr\rc\u0001 end)");

    const std::string spec =
        R"({"kernel":"fft","seed":1234567890123,"cores":8,)"
        R"("name":"q\"b\\n\nt\tr\rc\u0001 end",)"
        R"("nested":{"ts":1700000000123456,"frac":0.1,"obj":{},)"
        R"("list":[1,2.5,-3,true,false,null,"x"]}})";
    std::ostringstream os;
    json::encode(os, json::parse(spec));
    // Compact, keys in sorted order, integers exact, anything else
    // with the 17 digits that round-trip a double.
    const std::string encoded = os.str();
    EXPECT_EQ(encoded,
              R"({"cores":8,"kernel":"fft",)"
              R"("name":"q\"b\\n\nt\tr\rc\u0001 end",)"
              R"("nested":{"frac":0.10000000000000001,)"
              R"("list":[1,2.5,-3,true,false,null,"x"],"obj":{},)"
              R"("ts":1700000000123456},"seed":1234567890123})");

    const json::Value back = json::parse(encoded);
    EXPECT_EQ(back.at("name").asString(), nasty);
    EXPECT_EQ(back.at("nested").at("frac").asNumber(), 0.1);
    EXPECT_EQ(back.at("nested").at("ts").asUint(), 1700000000123456u);
    std::ostringstream again;
    json::encode(again, back);
    EXPECT_EQ(again.str(), encoded);
}

TEST(Options, ParsesKeyValueAndFlags)
{
    const char *argv[] = {"prog", "--alpha=3", "--beta", "pos1",
                          "--gamma=x,y", "pos2"};
    Options o(6, argv);
    EXPECT_TRUE(o.has("alpha"));
    EXPECT_TRUE(o.has("beta"));
    EXPECT_FALSE(o.has("delta"));
    EXPECT_EQ(o.getUint("alpha", 0), 3u);
    EXPECT_EQ(o.get("gamma"), "x,y");
    ASSERT_EQ(o.positional().size(), 2u);
    EXPECT_EQ(o.positional()[0], "pos1");
    EXPECT_EQ(o.positional()[1], "pos2");
}

TEST(Options, TypedDefaults)
{
    const char *argv[] = {"prog", "--rate=0.25", "--on=true",
                          "--off=false"};
    Options o(4, argv);
    EXPECT_DOUBLE_EQ(o.getDouble("rate", 1.0), 0.25);
    EXPECT_DOUBLE_EQ(o.getDouble("missing", 1.5), 1.5);
    EXPECT_TRUE(o.getBool("on", false));
    EXPECT_FALSE(o.getBool("off", true));
    EXPECT_TRUE(o.getBool("missing", true));
}

TEST(OptionsDeathTest, RejectsUnknownFlag)
{
    const std::vector<OptionSpec> known = {
        {"alpha", "N", "a known flag"},
    };
    const char *argv[] = {"prog", "--alpha=3", "--tpyo=1"};
    Options o(3, argv);
    EXPECT_EXIT(o.enforceKnown("prog", known),
                testing::ExitedWithCode(1), "unknown option --tpyo");

    const char *good[] = {"prog", "--alpha=3"};
    Options ok(2, good);
    ok.enforceKnown("prog", known); // must not exit

    const char *help[] = {"prog", "--help"};
    Options h(2, help);
    // Usage text goes to stdout (EXPECT_EXIT only matches stderr).
    EXPECT_EXIT(h.enforceKnown("prog", known),
                testing::ExitedWithCode(0), "");
}

TEST(OptionsDeathTest, SuggestsClosestFlagForTypos)
{
    const std::vector<OptionSpec> known = {
        {"report-out", "FILE", "run report path"},
        {"watchdog-ms", "MS", "stall threshold"},
    };
    {
        // One transposition away from report-out.
        const char *argv[] = {"prog", "--reprot-out=r.json"};
        Options o(2, argv);
        EXPECT_EXIT(o.enforceKnown("prog", known),
                    testing::ExitedWithCode(1),
                    "unknown option --reprot-out \\(did you mean "
                    "--report-out\\?");
    }
    {
        // Wrong unit suffix on the watchdog flag.
        const char *argv[] = {"prog", "--watchdog-sec=5"};
        Options o(2, argv);
        EXPECT_EXIT(o.enforceKnown("prog", known),
                    testing::ExitedWithCode(1),
                    "did you mean --watchdog-ms\\?");
    }
    {
        // Nothing plausibly close: no suggestion, plain rejection.
        const char *argv[] = {"prog", "--zzzzzzzzzz=1"};
        Options o(2, argv);
        EXPECT_EXIT(o.enforceKnown("prog", known),
                    testing::ExitedWithCode(1),
                    "unknown option --zzzzzzzzzz \\(run with --help");
    }
}

TEST(Table, PrintsAlignedColumnsAndCsv)
{
    Table t("demo");
    t.setHeader({"name", "value"});
    t.cell("alpha").cell(std::uint64_t{42}).endRow();
    t.cell("b").cell(1.5, 1).endRow();
    EXPECT_EQ(t.rowCount(), 2u);

    std::ostringstream text;
    t.print(text);
    EXPECT_NE(text.str().find("demo"), std::string::npos);
    EXPECT_NE(text.str().find("alpha"), std::string::npos);

    std::ostringstream csv;
    t.printCsv(csv);
    EXPECT_EQ(csv.str(), "name,value\nalpha,42\nb,1.5\n");
}

TEST(Table, Formatters)
{
    EXPECT_EQ(formatDouble(1.23456, 2), "1.23");
    EXPECT_EQ(formatPercent(0.00123, 3), "0.123%");
    EXPECT_EQ(formatCycles(50000), "50k");
    EXPECT_EQ(formatCycles(2000000), "2M");
    EXPECT_EQ(formatCycles(1234), "1234");
}

TEST(Options, GetAllReturnsRepeatedFlagsInOrder)
{
    const char *argv[] = {"prog", "--fault-spec=a@ckpt:1", "--other=x",
                          "--fault-spec=b@ckpt:2"};
    Options o(4, argv);
    // Scalar get keeps last-wins semantics for repeated flags...
    EXPECT_EQ(o.get("fault-spec"), "b@ckpt:2");
    // ...while getAll preserves every occurrence in argv order.
    const auto all = o.getAll("fault-spec");
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0], "a@ckpt:1");
    EXPECT_EQ(all[1], "b@ckpt:2");
    EXPECT_TRUE(o.getAll("missing").empty());
}

TEST(OptionsDeathTest, RejectsMalformedNumericValues)
{
    const char *argv[] = {"prog",       "--empty=",   "--neg=-5",
                          "--junk=5x",  "--huge=99999999999999999999",
                          "--fempty=",  "--fjunk=1.5q"};
    Options o(7, argv);
    // An empty or negative value must not silently become 0 or wrap
    // modulo 2^64 (a "--slack=-5" run would quietly be unbounded).
    EXPECT_DEATH(o.getUint("empty", 7), "non-negative integer");
    EXPECT_DEATH(o.getUint("neg", 7), "non-negative integer");
    EXPECT_DEATH(o.getUint("junk", 7), "expects an integer");
    EXPECT_DEATH(o.getUint("huge", 7), "expects an integer");
    EXPECT_DEATH(o.getDouble("fempty", 1.0), "expects a number");
    EXPECT_DEATH(o.getDouble("fjunk", 1.0), "expects a number");
}
