/**
 * @file
 * Epoch metrics sampler tests: the sampler's cadence and CSV shape,
 * the adaptive-bound series converging toward the target band on a
 * micro workload, and a speculative run's series containing the
 * rollback -> replay -> resume transition.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/run.hh"
#include "scratch_path.hh"
#include "obs/metrics.hh"
#include "util/logging.hh"

using namespace slacksim;
using namespace slacksim::obs;

namespace {

/** Parse a CSV file into header + rows of string cells. */
struct Csv
{
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;

    std::string schemaLine;

    explicit Csv(const std::string &path)
    {
        std::ifstream in(path);
        std::string line;
        bool first = true;
        while (std::getline(in, line)) {
            if (!line.empty() && line[0] == '#') {
                schemaLine = line;
                continue;
            }
            std::vector<std::string> cells;
            std::stringstream ss(line);
            std::string cell;
            while (std::getline(ss, cell, ','))
                cells.push_back(cell);
            if (first) {
                header = cells;
                first = false;
            } else if (!cells.empty()) {
                rows.push_back(cells);
            }
        }
    }

    std::size_t
    column(const std::string &name) const
    {
        for (std::size_t i = 0; i < header.size(); ++i)
            if (header[i] == name)
                return i;
        ADD_FAILURE() << "no column " << name;
        return 0;
    }

    std::vector<double>
    numbers(const std::string &name) const
    {
        const std::size_t col = column(name);
        std::vector<double> out;
        for (const auto &row : rows)
            out.push_back(std::stod(row.at(col)));
        return out;
    }
};

MetricsRow
rowAt(Tick global, Tick bound)
{
    MetricsRow row;
    row.global = global;
    row.minLocal = global;
    row.maxLocal = global;
    row.slackBound = bound;
    return row;
}

} // namespace

TEST(MetricsSampler, CadenceAndWindowedRates)
{
    MetricsSampler sampler(100);
    EXPECT_TRUE(sampler.due(0));
    MetricsRow r0 = rowAt(0, 8);
    sampler.push(0, r0);
    EXPECT_FALSE(sampler.due(99));
    EXPECT_TRUE(sampler.due(100));

    MetricsRow r1 = rowAt(200, 8);
    r1.busViolations = 40;
    r1.mapViolations = 10;
    sampler.push(200, r1);
    ASSERT_EQ(sampler.rows().size(), 2u);
    // 40 bus violations over the 200-cycle window.
    EXPECT_DOUBLE_EQ(sampler.rows()[1].busViolRate, 0.2);
    EXPECT_DOUBLE_EQ(sampler.rows()[1].mapViolRate, 0.05);

    MetricsRow r2 = rowAt(300, 8);
    r2.busViolations = 40; // no new violations this window
    r2.mapViolations = 10;
    sampler.push(300, r2);
    EXPECT_DOUBLE_EQ(sampler.rows()[2].busViolRate, 0.0);
}

TEST(MetricsSampler, CsvShape)
{
    MetricsSampler sampler(10);
    MetricsRow row = rowAt(0, 4);
    row.coreLocal = {0, 0};
    sampler.push(0, row);
    MetricsRow row2 = rowAt(10, 4);
    row2.coreLocal = {10, 12};
    sampler.push(10, row2);

    std::ostringstream os;
    sampler.writeCsv(os);
    const std::string text = os.str();
    // Schema comment first, then the header.
    EXPECT_EQ(text.rfind("# schema=", 0), 0u);
    EXPECT_NE(text.find(MetricsSampler::csvSchema), std::string::npos);
    EXPECT_NE(text.find("wall_ns,global_cycle,"), std::string::npos);
    EXPECT_NE(text.find("slack_bound"), std::string::npos);
    for (const char *col : {"core0_local", "core0_lag", "core0_inq",
                            "core0_outq", "core1_local", "core1_lag",
                            "core1_inq", "core1_outq"})
        EXPECT_NE(text.find(col), std::string::npos) << col;
    // Schema comment + header + 2 data lines.
    int lines = 0;
    for (const char c : text)
        lines += c == '\n';
    EXPECT_EQ(lines, 4);
}

TEST(MetricsSampler, SlackLagColumnIsDriftAboveSlowestCore)
{
    MetricsSampler sampler(10);
    MetricsRow row = rowAt(100, 4);
    row.minLocal = 90;
    row.coreLocal = {90, 130};
    row.coreInQ = {3, 0};
    row.coreOutQ = {0, 7};
    sampler.push(100, row);

    const std::string path = test::scratchPath("obs_metrics_lag.csv");
    {
        std::ofstream os(path);
        sampler.writeCsv(os);
    }
    Csv csv(path);
    EXPECT_NE(csv.schemaLine.find(MetricsSampler::csvSchema),
              std::string::npos);
    // The straggler lags by 0; the leader by (130 - 90).
    EXPECT_EQ(csv.numbers("core0_lag").at(0), 0.0);
    EXPECT_EQ(csv.numbers("core1_lag").at(0), 40.0);
    EXPECT_EQ(csv.numbers("core0_inq").at(0), 3.0);
    EXPECT_EQ(csv.numbers("core1_outq").at(0), 7.0);
    std::remove(path.c_str());
}

TEST(MetricsSeries, AdaptiveBoundDescendsTowardTargetBand)
{
    setQuietLogging(true);
    const std::string path =
        test::scratchPath("obs_metrics_adaptive.csv");

    // The uniform micro kernel violates constantly; starting the
    // controller way above any sustainable bound must produce a
    // falling slack-bound series.
    SimConfig config;
    config.workload.kernel = "uniform";
    config.target.numCores = 4;
    config.workload.numThreads = 4;
    config.workload.iters = 4000;
    config.workload.footprintBytes = 32 * 1024;
    config.engine.scheme = SchemeKind::Adaptive;
    config.engine.adaptive.targetViolationRate = 1e-4;
    config.engine.adaptive.violationBand = 0.05;
    config.engine.adaptive.initialBound = 512;
    config.engine.adaptive.epochCycles = 500;
    config.engine.maxCommittedUops = 40000;
    config.engine.parallelHost = false;
    config.engine.obs.metricsOut = path;
    const RunResult r = runSimulation(config);

    Csv csv(path);
    ASSERT_GE(csv.rows.size(), 3u);
    const auto bounds = csv.numbers("slack_bound");
    EXPECT_EQ(static_cast<Tick>(bounds.front()), 512u);
    // The series must actually move...
    double lo = bounds.front(), hi = bounds.front();
    for (const double b : bounds) {
        lo = std::min(lo, b);
        hi = std::max(hi, b);
    }
    EXPECT_LT(lo, hi) << "bound never adjusted";
    // ...and end far below the deliberately absurd starting bound.
    EXPECT_LT(bounds.back(), 512.0);
    EXPECT_EQ(static_cast<Tick>(bounds.back()), r.finalSlackBound);

    // Sanity on the companion columns.
    const auto globals = csv.numbers("global_cycle");
    for (std::size_t i = 1; i < globals.size(); ++i)
        EXPECT_GE(globals[i], globals[i - 1]);

    std::remove(path.c_str());
}

TEST(MetricsSeries, SpeculativeRunShowsRollbackReplayResume)
{
    setQuietLogging(true);
    const std::string path =
        test::scratchPath("obs_metrics_spec.csv");

    // Bounded slack 32 on the sharing-heavy micro kernel guarantees
    // violations; speculative checkpoints then force at least one
    // rollback -> cycle-by-cycle replay -> resume sequence, and the
    // forced samples at both edges make it visible in the series.
    SimConfig config;
    config.workload.kernel = "uniform";
    config.target.numCores = 4;
    config.workload.numThreads = 4;
    config.workload.iters = 4000;
    config.workload.footprintBytes = 32 * 1024;
    config.workload.sharedFraction = 0.5;
    config.engine.scheme = SchemeKind::Bounded;
    config.engine.slackBound = 32;
    config.engine.maxCommittedUops = 30000;
    config.engine.parallelHost = false;
    config.engine.checkpoint.mode = CheckpointMode::Speculative;
    config.engine.checkpoint.interval = 1000;
    config.engine.obs.metricsOut = path;
    const RunResult r = runSimulation(config);
    ASSERT_GT(r.host.rollbacks, 0u) << "workload caused no rollback";

    Csv csv(path);
    const auto replay = csv.numbers("replay");
    const auto rollbacks = csv.numbers("rollbacks");
    ASSERT_EQ(replay.size(), rollbacks.size());

    // Find a rollback edge: the rollback counter steps up and the
    // sampler is inside the replay window...
    std::size_t edge = replay.size();
    for (std::size_t i = 1; i < replay.size(); ++i) {
        if (rollbacks[i] > rollbacks[i - 1] && replay[i] == 1.0) {
            edge = i;
            break;
        }
    }
    ASSERT_LT(edge, replay.size()) << "no rollback->replay edge";
    // ...and after it, a sample where replay ended (resume).
    bool resumed = false;
    for (std::size_t i = edge + 1; i < replay.size(); ++i)
        resumed |= replay[i] == 0.0;
    EXPECT_TRUE(resumed) << "replay window never closed";

    std::remove(path.c_str());
}
