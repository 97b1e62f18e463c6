/**
 * @file
 * Tests for checkpointing, the per-interval measurements (Tables 3/4
 * machinery), full speculative rollback + cycle-by-cycle replay, and
 * whole-world snapshot round-trips.
 */

#include <gtest/gtest.h>

#include <dirent.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <stop_token>
#include <string>
#include <thread>

#include "core/manager_logic.hh"
#include "core/run.hh"
#include "core/sim_system.hh"
#include "util/checksum.hh"
#include "workload/kernels.hh"

using namespace slacksim;

namespace {

SimConfig
measureConfig(const std::string &kernel, Tick interval,
              bool parallel_host)
{
    SimConfig config;
    config.workload.kernel = kernel;
    config.workload.numThreads = config.target.numCores;
    config.workload.iters = 2000;
    config.workload.fftPoints = 1024;
    config.workload.footprintBytes = 64 * 1024;
    config.engine.scheme = SchemeKind::Adaptive;
    config.engine.adaptive.targetViolationRate = 1e-4;
    config.engine.adaptive.initialBound = 16;
    config.engine.parallelHost = parallel_host;
    config.engine.checkpoint.mode = CheckpointMode::Measure;
    config.engine.checkpoint.interval = interval;
    return config;
}

} // namespace

TEST(CheckpointMeasure, IntervalsCoverTheRun)
{
    const auto r = runSimulation(measureConfig("falseshare", 2000,
                                               false));
    EXPECT_GT(r.host.checkpointsTaken, 1u);
    EXPECT_GT(r.host.checkpointBytes, 10000u);
    // One interval per checkpoint except the last open one.
    EXPECT_EQ(r.intervals.size(), r.host.checkpointsTaken - 1);
    for (std::size_t i = 0; i < r.intervals.size(); ++i) {
        EXPECT_EQ(r.intervals[i].start, i * 2000);
        if (r.intervals[i].violated())
            EXPECT_LT(r.intervals[i].firstViolationOffset, 2000u);
    }
    EXPECT_EQ(r.host.rollbacks, 0u); // measurement never rolls back
}

TEST(CheckpointMeasure, FractionRisesWithInterval)
{
    // Larger intervals are more likely to contain a violation
    // (paper Table 3's trend).
    const auto r_small =
        runSimulation(measureConfig("falseshare", 500, false));
    const auto r_large =
        runSimulation(measureConfig("falseshare", 8000, false));
    ASSERT_GT(r_small.intervals.size(), 2u);
    ASSERT_GT(r_large.intervals.size(), 0u);
    EXPECT_LE(r_small.fractionIntervalsViolated() - 0.3,
              r_large.fractionIntervalsViolated());
}

TEST(CheckpointMeasure, WorksOnParallelHost)
{
    const auto r =
        runSimulation(measureConfig("falseshare", 2000, true));
    EXPECT_GT(r.host.checkpointsTaken, 1u);
    EXPECT_EQ(r.host.rollbacks, 0u);
    EXPECT_GT(r.intervals.size(), 0u);
}

TEST(CheckpointMeasure, MeasureModeDoesNotChangeResults)
{
    // Checkpointing quiesces the world but must not perturb the
    // simulated outcome of a deterministic (serial, CC) run.
    SimConfig plain = measureConfig("pingpong", 2000, false);
    plain.engine.scheme = SchemeKind::CycleByCycle;
    plain.workload.iters = 500;
    SimConfig with_cp = plain;
    plain.engine.checkpoint.mode = CheckpointMode::Off;

    const auto r_plain = runSimulation(plain);
    const auto r_cp = runSimulation(with_cp);
    EXPECT_EQ(r_plain.execCycles, r_cp.execCycles);
    EXPECT_EQ(r_plain.committedUops, r_cp.committedUops);
    EXPECT_EQ(r_plain.coreTotal.l1dMisses, r_cp.coreTotal.l1dMisses);
    EXPECT_EQ(r_plain.uncore.busRequests, r_cp.uncore.busRequests);
}

TEST(Speculative, RollsBackAndStillCompletes)
{
    SimConfig config = measureConfig("falseshare", 2000, false);
    config.engine.checkpoint.mode = CheckpointMode::Speculative;
    config.engine.adaptive.initialBound = 64; // provoke violations
    config.engine.adaptive.targetViolationRate = 0.05;
    const Workload w = makeWorkload(config.workload);
    const auto r = runSimulation(config);
    EXPECT_GT(r.host.rollbacks, 0u);
    EXPECT_GT(r.host.replayCycles, 0u);
    EXPECT_GT(r.host.wastedCycles, 0u);
    // Despite rollbacks, the run completes the whole trace exactly.
    EXPECT_EQ(r.committedUops, w.totalMicroOps());
}

TEST(Speculative, WorksOnParallelHost)
{
    SimConfig config = measureConfig("falseshare", 2000, true);
    config.engine.checkpoint.mode = CheckpointMode::Speculative;
    config.engine.adaptive.initialBound = 64;
    config.engine.adaptive.targetViolationRate = 0.05;
    const Workload w = makeWorkload(config.workload);
    const auto r = runSimulation(config);
    EXPECT_GT(r.host.rollbacks, 0u);
    EXPECT_EQ(r.committedUops, w.totalMicroOps());
}

TEST(Speculative, SerialSpeculativeIsDeterministic)
{
    SimConfig config = measureConfig("falseshare", 1000, false);
    config.engine.checkpoint.mode = CheckpointMode::Speculative;
    config.engine.adaptive.initialBound = 32;
    config.engine.adaptive.targetViolationRate = 0.05;
    const auto a = runSimulation(config);
    const auto b = runSimulation(config);
    EXPECT_EQ(a.execCycles, b.execCycles);
    EXPECT_EQ(a.committedUops, b.committedUops);
    EXPECT_EQ(a.host.rollbacks, b.host.rollbacks);
    EXPECT_EQ(a.host.wastedCycles, b.host.wastedCycles);
}

TEST(Speculative, CheckpointTimeIsAllCriticalPath)
{
    // The manager serializes, seals and copies every checkpoint
    // itself, on both engines: all of it is critical-path
    // checkpointSeconds, and the background figure the run report
    // keeps for its v5 key set stays 0.
    for (const bool parallel_host : {false, true}) {
        SimConfig config = measureConfig("falseshare", 2000,
                                         parallel_host);
        config.engine.checkpoint.mode = CheckpointMode::Speculative;
        config.engine.adaptive.initialBound = 64;
        config.engine.adaptive.targetViolationRate = 0.05;
        const auto r = runSimulation(config);
        ASSERT_GT(r.host.checkpointsTaken, 1u) << parallel_host;
        EXPECT_GT(r.host.rollbacks, 0u) << parallel_host;
        EXPECT_GT(r.host.checkpointSeconds, 0.0) << parallel_host;
        EXPECT_EQ(r.host.checkpointAsyncSeconds, 0.0) << parallel_host;
    }
}

namespace {

/** @return this process's OS threads right now (/proc/self/task). */
std::size_t
osThreads()
{
    std::size_t n = 0;
    if (DIR *dir = opendir("/proc/self/task")) {
        while (const dirent *entry = readdir(dir))
            n += entry->d_name[0] != '.';
        closedir(dir);
    }
    return n;
}

/** What runCountingThreads() saw. */
struct CountedRun
{
    RunResult result;
    std::size_t threads = 0; //!< most OS threads the run occupied
    std::uint64_t samples = 0; //!< samples taken while it ran
};

/** Run @p config while a sampler thread polls /proc/self/task. The
 *  run's manager is the calling thread, so the run occupies one
 *  thread plus whatever the process gained over its idle count. */
CountedRun
runCountingThreads(const SimConfig &config)
{
    std::atomic<std::size_t> peak{0};
    std::atomic<std::uint64_t> samples{0};
    std::jthread sampler([&](std::stop_token stop) {
        while (!stop.stop_requested()) {
            const std::size_t n = osThreads();
            if (n > peak.load())
                peak.store(n);
            samples.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
    });
    while (samples.load() == 0)
        std::this_thread::yield();
    const std::size_t idle = peak.load(); // this thread + the sampler
    const std::uint64_t before = samples.load();
    CountedRun run;
    run.result = runSimulation(config);
    run.samples = samples.load() - before;
    sampler.request_stop();
    sampler.join();
    run.threads = 1 + (peak.load() - idle);
    return run;
}

} // namespace

TEST(Checkpointer, RunUsesNoThreadBeyondItsHostThreads)
{
    // Checkpoints add no host thread: whatever the engine, a
    // checkpointed run occupies at most the host_threads_used it
    // reports.
    SimConfig inline_spec = measureConfig("falseshare", 1000, true);
    inline_spec.engine.hostThreads = 1;
    inline_spec.engine.checkpoint.mode = CheckpointMode::Speculative;
    inline_spec.engine.adaptive.initialBound = 32;
    inline_spec.engine.adaptive.targetViolationRate = 0.05;

    SimConfig measure = measureConfig("falseshare", 1000, true);
    measure.engine.hostThreads = 3;

    SimConfig serial_spec = inline_spec;
    serial_spec.engine.parallelHost = false;
    serial_spec.engine.hostThreads = 0;

    for (const SimConfig *config : {&inline_spec, &measure, &serial_spec}) {
        const CountedRun run = runCountingThreads(*config);
        const HostStats &host = run.result.host;
        SCOPED_TRACE(std::string("parallel_host=") +
                     (config->engine.parallelHost ? "1" : "0") +
                     " host_threads=" +
                     std::to_string(config->engine.hostThreads));
        ASSERT_GT(host.checkpointsTaken, 1u);
        ASSERT_GE(run.samples, 3u) << "the run ended between samples";
        EXPECT_LE(run.threads, host.hostThreadsUsed);
    }
}

TEST(Speculative, SelectiveRollbackOnMapOnlyRollsBackLess)
{
    // The paper suggests ignoring bus violations and rolling back on
    // the rare map violations only.
    SimConfig all = measureConfig("falseshare", 1000, false);
    all.engine.checkpoint.mode = CheckpointMode::Speculative;
    all.engine.adaptive.initialBound = 32;
    all.engine.adaptive.targetViolationRate = 0.05;
    SimConfig map_only = all;
    map_only.engine.checkpoint.rollbackOnBus = false;

    const auto r_all = runSimulation(all);
    const auto r_map = runSimulation(map_only);
    EXPECT_LE(r_map.host.rollbacks, r_all.host.rollbacks);
}

TEST(Speculative, CycleByCycleBaseNeverRollsBack)
{
    SimConfig config = measureConfig("falseshare", 1000, false);
    config.engine.scheme = SchemeKind::CycleByCycle;
    config.engine.checkpoint.mode = CheckpointMode::Speculative;
    config.workload.iters = 500;
    const auto r = runSimulation(config);
    EXPECT_EQ(r.host.rollbacks, 0u);
    EXPECT_EQ(r.violations.total(), 0u);
}

TEST(Checkpointer, ExtraCopyBytesArenaWorks)
{
    SimConfig config = measureConfig("pingpong", 1000, false);
    config.workload.iters = 300;
    config.engine.checkpoint.extraCopyBytes = 8 * 1024 * 1024;
    const auto r = runSimulation(config);
    EXPECT_GT(r.host.checkpointsTaken, 0u);
    EXPECT_GT(r.host.checkpointSeconds, 0.0);
}

TEST(SimSystem, WholeWorldSnapshotRoundTrip)
{
    SimConfig config = measureConfig("uniform", 1000, false);
    config.workload.iters = 500;
    SimSystem sys(config);

    SnapshotWriter w0;
    sys.save(w0);
    const std::size_t size0 = w0.size();

    // Restoring the initial snapshot into the same world must be a
    // no-op: a second save produces identical bytes.
    SnapshotReader r(w0.bytes());
    sys.restore(r);
    EXPECT_TRUE(r.exhausted());
    SnapshotWriter w1;
    sys.save(w1);
    EXPECT_EQ(w1.size(), size0);
    EXPECT_EQ(w1.bytes(), w0.bytes());
}

TEST(SimSystem, AccessorsOnFreshWorld)
{
    SimConfig config = measureConfig("pingpong", 1000, false);
    SimSystem sys(config);
    EXPECT_EQ(sys.numCores(), 8u);
    EXPECT_EQ(sys.globalTime(), 0u);
    EXPECT_EQ(sys.maxLocalTime(), 0u);
    EXPECT_FALSE(sys.allFinished());
    EXPECT_EQ(sys.totalCommittedUops(), 0u);
    EXPECT_EQ(sys.workload().name, "pingpong");
}

namespace {

/**
 * Build a world, drive it for @p rounds serial rounds of up to 16
 * cycles per core under sorted service (so staged events stay in the
 * image), then seal the world and its manager into one image the way
 * a checkpoint does.
 */
std::vector<std::uint8_t>
steppedImage(const SimConfig &config, int rounds)
{
    SimSystem sys(config);
    HostStats host;
    ManagerLogic mgr(sys, config.engine, &host);
    mgr.setSorted(true);
    for (int i = 0; i < rounds; ++i) {
        const Tick limit = sys.globalTime() + 15;
        for (CoreId c = 0; c < sys.numCores(); ++c) {
            CoreComplex &cc = sys.core(c);
            while (!cc.finished() && cc.localTime() <= limit &&
                   cc.cycle(limit) ==
                       CoreComplex::CycleOutcome::Progress) {
            }
        }
        mgr.pumpAll();
        mgr.serviceSorted(sys.globalTime());
        mgr.flushOverflow();
    }
    SnapshotWriter w;
    sys.save(w);
    mgr.save(w);
    std::vector<std::uint8_t> image = w.release();
    sealSnapshot(image);
    return image;
}

/** Leave junk in freed heap blocks and in the stack below this
 *  frame, where the next world's objects will be built. */
void
dirtyHeapAndStack()
{
    std::vector<std::unique_ptr<unsigned char[]>> blocks;
    for (std::size_t size = 16; size <= (std::size_t{1} << 20);
         size *= 2) {
        for (int i = 0; i < 8; ++i) {
            blocks.emplace_back(new unsigned char[size]);
            std::memset(blocks.back().get(), 0xa5, size);
        }
    }
    volatile unsigned char stack[64 * 1024];
    for (std::size_t i = 0; i < sizeof(stack); ++i)
        stack[i] = 0x5a;
}

} // namespace

TEST(SimSystem, CheckpointImagesAreByteReproducible)
{
    // Every struct a checkpoint copies raw has named, zeroed padding
    // (util/snapshot.hh asserts it), so an image holds only state:
    // two worlds driven alike seal to the same bytes and XXH64, even
    // when the memory the second is built in was dirty.
    SimConfig config = measureConfig("pingpong", 1000, false);
    config.workload.iters = 400;
    const std::vector<std::uint8_t> first = steppedImage(config, 60);
    dirtyHeapAndStack();
    const std::vector<std::uint8_t> second = steppedImage(config, 60);
    ASSERT_GT(first.size(), snapshotTrailerBytes);
    EXPECT_EQ(first.size(), second.size());
    EXPECT_TRUE(first == second) << "checkpoint images differ";
    EXPECT_TRUE(verifySnapshot(first).has_value());
    EXPECT_EQ(std::memcmp(first.data() + first.size() - 8,
                          second.data() + second.size() - 8, 8),
              0)
        << "XXH64 trailers differ";
}
