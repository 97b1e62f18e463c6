/**
 * @file
 * Golden regression test: the cycle-by-cycle gold standard is fully
 * deterministic (integer timing arithmetic, seeded generators, sorted
 * event service), so its results for fixed configurations are pinned
 * exactly. Any change to these numbers means the simulated machine's
 * behavior changed — which must be a deliberate, reviewed decision,
 * never an accident of refactoring.
 *
 * To regenerate after an intentional model change, run each config
 * below through the serial engine and update the table (the
 * generation snippet lives in the repo history / EXPERIMENTS notes).
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/run.hh"

using namespace slacksim;

namespace {

struct Golden
{
    std::uint64_t execCycles;
    std::uint64_t committedUops;
    std::uint64_t l1dMisses;
    std::uint64_t l1iMisses;
    std::uint64_t busRequests;
    std::uint64_t l2Misses;
};

const std::map<std::string, Golden> goldenValues = {
    {"barnes", {36900ull, 59970ull, 3105ull, 2009ull, 5288ull, 2469ull}},
    {"fft", {40914ull, 81968ull, 1495ull, 2282ull, 3801ull, 3218ull}},
    {"lu", {16322ull, 7688ull, 444ull, 482ull, 1010ull, 610ull}},
    {"water", {5267ull, 4536ull, 263ull, 286ull, 652ull, 337ull}},
    {"pingpong", {60797ull, 33616ull, 2484ull, 128ull, 2615ull, 129ull}},
    {"falseshare", {6300ull, 16816ull, 2487ull, 128ull, 2717ull, 132ull}},
    {"uniform", {10320ull, 11345ull, 2161ull, 519ull, 2659ull, 2134ull}},
    {"ocean", {4706ull, 4384ull, 318ull, 278ull, 598ull, 527ull}},
    {"radix", {13548ull, 9440ull, 4132ull, 592ull, 4935ull, 924ull}},
    {"syncstorm",
     {57985ull, 26116ull, 4208ull, 128ull, 4636ull, 136ull}},
};

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

} // namespace

class GoldenRun : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GoldenRun, CycleByCycleResultsArePinned)
{
    const std::string kernel = GetParam();
    const Golden &expect = goldenValues.at(kernel);
    const RunResult r = runSimulation(goldenConfig(kernel));
    EXPECT_EQ(r.execCycles, expect.execCycles);
    EXPECT_EQ(r.committedUops, expect.committedUops);
    EXPECT_EQ(r.coreTotal.l1dMisses, expect.l1dMisses);
    EXPECT_EQ(r.coreTotal.l1iMisses, expect.l1iMisses);
    EXPECT_EQ(r.uncore.busRequests, expect.busRequests);
    EXPECT_EQ(r.uncore.l2Misses, expect.l2Misses);
    EXPECT_EQ(r.violations.total(), 0u); // CC never violates
}

TEST_P(GoldenRun, ParallelEngineReproducesGoldenValues)
{
    const std::string kernel = GetParam();
    const Golden &expect = goldenValues.at(kernel);
    SimConfig config = goldenConfig(kernel);
    config.engine.parallelHost = true;
    const RunResult r = runSimulation(config);
    EXPECT_EQ(r.execCycles, expect.execCycles);
    EXPECT_EQ(r.committedUops, expect.committedUops);
    EXPECT_EQ(r.uncore.busRequests, expect.busRequests);
    EXPECT_EQ(r.uncore.l2Misses, expect.l2Misses);
    EXPECT_EQ(r.violations.total(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, GoldenRun,
    ::testing::Values("barnes", "fft", "lu", "water", "pingpong",
                      "falseshare", "uniform", "ocean", "radix",
                      "syncstorm"),
    [](const auto &info) { return info.param; });
