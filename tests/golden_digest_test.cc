/**
 * @file
 * Full-statistic golden digests. golden_test.cc pins six headline
 * numbers per kernel; a change that miscounts a single stall counter
 * on one core would slip past it. Each case here folds *every*
 * simulated statistic of a run into one XXH64 digest:
 *  - execCycles and globalCycles;
 *  - every field of each core's CoreStats;
 *  - UncoreStats and ViolationStats;
 *  - the bus-queue histogram (count, sum, min, max, every bucket).
 *
 * Cycle-by-cycle cases must produce the same digest on the serial
 * engine (the oracle) and on the inline parallel engine. Slack and
 * speculative cases run the inline parallel engine, whose arrival
 * order is deterministic. A mismatch prints the new digest; update
 * the table only for a deliberate model change.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "core/run.hh"
#include "util/checksum.hh"

using namespace slacksim;

namespace {

static_assert(std::has_unique_object_representations_v<CoreStats> &&
                  std::has_unique_object_representations_v<UncoreStats> &&
                  std::has_unique_object_representations_v<ViolationStats>,
              "stat records must be padding-free to digest their bytes");

template <typename T>
void
appendWords(std::vector<std::uint64_t> &words, const T &record)
{
    static_assert(sizeof(T) % sizeof(std::uint64_t) == 0);
    const std::size_t n = sizeof(T) / sizeof(std::uint64_t);
    words.resize(words.size() + n);
    std::memcpy(words.data() + words.size() - n, &record, sizeof(T));
}

std::uint64_t
statDigest(const RunResult &r)
{
    std::vector<std::uint64_t> words = {r.execCycles, r.globalCycles};
    for (const CoreStats &core : r.perCore)
        appendWords(words, core);
    appendWords(words, r.uncore);
    appendWords(words, r.violations);
    const Log2Histogram &h = r.busQueueHistogram;
    words.insert(words.end(), {h.count(), h.sum(), h.min(), h.max()});
    for (std::uint32_t b = 0; b <= 64; ++b)
        words.push_back(h.bucketCount(b));
    return xxh64(words.data(), words.size() * sizeof(std::uint64_t));
}

const std::vector<std::string> allKernels = {
    "barnes",     "fft",     "lu",    "water", "pingpong",
    "falseshare", "uniform", "ocean", "radix", "syncstorm"};

/** The golden workload sizes (mirrors golden_test.cc). */
SimConfig
goldenConfig(const std::string &kernel)
{
    SimConfig c;
    c.workload.kernel = kernel;
    c.workload.numThreads = 8;
    c.workload.iters = 300;
    c.workload.bodies = 128;
    c.workload.timesteps = 1;
    c.workload.fftPoints = 1024;
    c.workload.matrixN = 32;
    c.workload.blockB = 8;
    c.workload.molecules = 16;
    c.workload.footprintBytes = 64 * 1024;
    c.engine.parallelHost = false;
    c.engine.scheme = SchemeKind::CycleByCycle;
    return c;
}

SimConfig
inlineParallel(SimConfig c)
{
    c.engine.parallelHost = true;
    c.engine.hostThreads = 1;
    return c;
}

/** Run @p config on the serial engine and on the inline parallel
 *  engine; each must match @p expect. */
void
expectCcDigest(const SimConfig &config, std::uint64_t expect)
{
    EXPECT_EQ(statDigest(runSimulation(config)), expect) << "serial";
    const RunResult r = runSimulation(inlineParallel(config));
    EXPECT_EQ(statDigest(r), expect) << "inline";
    EXPECT_EQ(r.violations.total(), 0u);
}

// Cycle-by-cycle, golden workloads, run to completion.
const std::map<std::string, std::uint64_t> ccDigests = {
    {"barnes", 0x820554d96101d10dull},
    {"fft", 0x0c6aaca9db1c4676ull},
    {"lu", 0xa544393f938100e4ull},
    {"water", 0x70db7e89ff923067ull},
    {"pingpong", 0x2ccbc1c0f18ea2f4ull},
    {"falseshare", 0x65fe9c8d8e947941ull},
    {"uniform", 0xed0e4a4c8dfd1598ull},
    {"ocean", 0x87b054a6a48d9466ull},
    {"radix", 0x96cd823edeaa42dfull},
    {"syncstorm", 0x6f97833f9cd5c8c3ull},
};

// Cycle-by-cycle with maxCommittedUops = 15007: the run must stop on
// the same cycle as the serial engine's one-cycle rounds.
const std::map<std::string, std::uint64_t> budgetDigests = {
    {"barnes", 0x5acaae9f2da2ba72ull},
    {"fft", 0x7d6dd0b72db478ceull},
    {"lu", 0xa544393f938100e4ull},
    {"water", 0x70db7e89ff923067ull},
    {"pingpong", 0xa21263a1cd915ed1ull},
    {"falseshare", 0xcffc7f3250903adfull},
    {"uniform", 0xed0e4a4c8dfd1598ull},
    {"ocean", 0x87b054a6a48d9466ull},
    {"radix", 0x96cd823edeaa42dfull},
    {"syncstorm", 0xdb98f22a2d97ebeeull},
};

// Cycle-by-cycle with target.syncLatency = 1: sync grants arrive one
// cycle after their request, the tightest uncore lookahead.
const std::map<std::string, std::uint64_t> syncLatencyDigests = {
    {"barnes", 0xa0a5f6f435cc2025ull},
    {"fft", 0x157d762ff5e60bc1ull},
    {"lu", 0x9608a373f5db35b1ull},
    {"water", 0xb8c656901559d08full},
    {"pingpong", 0x665233dcb6591b4bull},
    {"falseshare", 0x4d5b21e16b9267eaull},
    {"uniform", 0xef11c5a151d1995dull},
    {"ocean", 0x0f774a209ccb7b1full},
    {"radix", 0xda34e09ebd998892ull},
    {"syncstorm", 0x6e2bd678cec016c7ull},
};

// Cycle-by-cycle with warmupUops = 5003: statistics reset on the
// same cycle as the serial engine's.
const std::map<std::string, std::uint64_t> warmupDigests = {
    {"barnes", 0x415659512c6f489dull},
    {"fft", 0xc680539b6582fd7cull},
    {"lu", 0x6965a5d19de8c61eull},
    {"water", 0x70db7e89ff923067ull},
    {"pingpong", 0xfb124a726b3b5023ull},
    {"falseshare", 0xa63bbab13cf21fb2ull},
    {"uniform", 0xaa4a8883429afda5ull},
    {"ocean", 0x87b054a6a48d9466ull},
    {"radix", 0x4e389986c9bf64ceull},
    {"syncstorm", 0xdcc65af784962e3bull},
};

// Inline parallel engine, keyed "<scheme>/<kernel>".
const std::map<std::string, std::uint64_t> slackDigests = {
    {"speculative/barnes", 0x820554d96101d10dull},
    {"speculative/fft", 0x19dbf9d4c75b6a0dull},
    {"speculative/pingpong", 0xb6fe5df2fd4da43aull},
    {"bounded16/barnes", 0xa3eb7556be26a381ull},
    {"bounded16/fft", 0x8c3547b1313b7073ull},
    {"bounded16/pingpong", 0xa498b9e72003bd15ull},
    {"adaptive/barnes", 0x08167332fbdb6e30ull},
    {"adaptive/fft", 0x124f34eef78cefceull},
    {"adaptive/pingpong", 0x2f58c0e5a0df3c18ull},
};

// Core geometries and latencies the defaults never reach, keyed
// "<variant>/<scheme>/<kernel>"; "cc" is checked on the serial and
// the inline engine. At the defaults every timer completion arrives
// in timestamp order; a 3-cycle L1D hit completes after the younger
// ALU ops issued behind it, so completions arrive out of order.
const std::map<std::string, std::uint64_t> coreVariantDigests = {
    {"rob16sb2/cc/barnes", 0x8e21d7fd750084efull},
    {"rob16sb2/cc/fft", 0x4c2209843d4bacc6ull},
    {"rob16sb2/cc/pingpong", 0x2b4ae54acbc791fbull},
    {"rob16sb2/bounded16/barnes", 0x8151f85709764cf9ull},
    {"rob16sb2/bounded16/fft", 0x88e1788b13ea1dbaull},
    {"rob16sb2/bounded16/pingpong", 0x4f64c1c629d8c6daull},
    {"rob16sb2/speculative/barnes", 0x8e21d7fd750084efull},
    {"rob16sb2/speculative/fft", 0x786caed4b35df6eeull},
    {"rob16sb2/speculative/pingpong", 0x9b38e451b5e98fabull},
    {"l1dhit3/cc/barnes", 0x733e3d46cf97b07full},
    {"l1dhit3/cc/fft", 0x5a7d3a3e105d53d2ull},
    {"l1dhit3/cc/pingpong", 0x2ccbc1c0f18ea2f4ull},
    {"l1dhit3/bounded16/barnes", 0xa81c75c87295dd92ull},
    {"l1dhit3/bounded16/fft", 0x48e59789b523d1ffull},
    {"l1dhit3/bounded16/pingpong", 0xe4abe06459d583fbull},
    {"l1dhit3/speculative/barnes", 0x733e3d46cf97b07full},
    {"l1dhit3/speculative/fft", 0x7c4fbd3408acfa86ull},
    {"l1dhit3/speculative/pingpong", 0xee39d739b42d7e4bull},
    {"alu2/cc/barnes", 0x127ba3d267d7d3fdull},
    {"alu2/cc/fft", 0xdb152bd1cd9d5043ull},
    {"alu2/cc/pingpong", 0x2ccbc1c0f18ea2f4ull},
    {"alu2/bounded16/barnes", 0xbd4dac27f3c3ba64ull},
    {"alu2/bounded16/fft", 0xf42b547a7313b28aull},
    {"alu2/bounded16/pingpong", 0x0c1c221373d3a44eull},
    {"alu2/speculative/barnes", 0x127ba3d267d7d3fdull},
    {"alu2/speculative/fft", 0x86ef82ca6663db05ull},
    {"alu2/speculative/pingpong", 0x9a530e65e25970c7ull},
};

SimConfig
coreVariant(SimConfig c, const std::string &variant)
{
    if (variant == "rob16sb2") {
        c.target.core.robSize = 16;
        c.target.core.sbSize = 2;
    } else if (variant == "l1dhit3") {
        c.target.l1d.hitLatency = 3;
    } else {
        c.target.core.aluLatency = 2;
    }
    return c;
}

SimConfig
slackConfig(const std::string &scheme, const std::string &kernel)
{
    SimConfig c = inlineParallel(goldenConfig(kernel));
    if (scheme == "speculative") {
        c.engine.scheme = SchemeKind::Adaptive;
        c.engine.checkpoint.mode = CheckpointMode::Speculative;
        c.engine.checkpoint.interval = 1000;
        c.engine.checkpoint.rollbackOnBus = true;
        c.engine.checkpoint.rollbackOnMap = true;
    } else if (scheme == "bounded16") {
        c.engine.scheme = SchemeKind::Bounded;
        c.engine.slackBound = 16;
    } else {
        c.engine.scheme = SchemeKind::Adaptive;
    }
    return c;
}

} // namespace

class GoldenDigest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GoldenDigest, CycleByCycleEveryStatistic)
{
    expectCcDigest(goldenConfig(GetParam()), ccDigests.at(GetParam()));
}

TEST_P(GoldenDigest, CycleByCycleStopsOnTheBudgetCycle)
{
    SimConfig config = goldenConfig(GetParam());
    config.engine.maxCommittedUops = 15007;
    expectCcDigest(config, budgetDigests.at(GetParam()));
}

TEST_P(GoldenDigest, CycleByCycleWithOneCycleSyncLatency)
{
    SimConfig config = goldenConfig(GetParam());
    config.target.syncLatency = 1;
    expectCcDigest(config, syncLatencyDigests.at(GetParam()));
}

TEST_P(GoldenDigest, CycleByCycleResetsOnTheWarmupCycle)
{
    SimConfig config = goldenConfig(GetParam());
    config.engine.warmupUops = 5003;
    expectCcDigest(config, warmupDigests.at(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllKernels, GoldenDigest,
                         ::testing::ValuesIn(allKernels),
                         [](const auto &info) { return info.param; });

TEST(InlineBurstDigest, EveryBurstSizeStopsOnTheBudgetCycle)
{
    // The inline engine may run a core up to burstCycles per round;
    // the stop point and every statistic must not depend on it.
    for (const char *kernel : {"barnes", "fft"}) {
        for (const std::uint32_t burst : {1u, 7u, 1024u}) {
            SimConfig config = inlineParallel(goldenConfig(kernel));
            config.engine.maxCommittedUops = 15007;
            config.engine.burstCycles = burst;
            SCOPED_TRACE(testing::Message()
                         << kernel << " burst=" << burst);
            EXPECT_EQ(statDigest(runSimulation(config)),
                      budgetDigests.at(kernel));
        }
    }
}

TEST(SlackGoldenDigest, EveryStatisticOnTheInlineEngine)
{
    for (const char *scheme : {"speculative", "bounded16", "adaptive"}) {
        for (const char *kernel : {"barnes", "fft", "pingpong"}) {
            const std::string key = std::string(scheme) + "/" + kernel;
            SCOPED_TRACE(key);
            EXPECT_EQ(statDigest(runSimulation(slackConfig(scheme, kernel))),
                      slackDigests.at(key));
        }
    }
}

class CoreVariantDigest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CoreVariantDigest, EveryStatisticOnEveryEngine)
{
    const std::string variant = GetParam();
    for (const char *kernel : {"barnes", "fft", "pingpong"}) {
        const std::string cc = variant + "/cc/" + kernel;
        SCOPED_TRACE(cc);
        expectCcDigest(coreVariant(goldenConfig(kernel), variant),
                       coreVariantDigests.at(cc));
        for (const char *scheme : {"bounded16", "speculative"}) {
            const std::string key =
                variant + "/" + scheme + "/" + kernel;
            SCOPED_TRACE(key);
            const SimConfig config =
                coreVariant(slackConfig(scheme, kernel), variant);
            EXPECT_EQ(statDigest(runSimulation(config)),
                      coreVariantDigests.at(key));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(CoreGeometries, CoreVariantDigest,
                         ::testing::Values("rob16sb2", "l1dhit3", "alu2"),
                         [](const auto &info) { return info.param; });
