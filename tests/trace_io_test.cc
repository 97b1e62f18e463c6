/**
 * @file
 * Tests for workload trace serialization and the histogram utility.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>

#include "scratch_path.hh"
#include "util/histogram.hh"
#include "workload/kernels.hh"
#include "workload/trace_io.hh"
#include "workload/trace_stats.hh"

using namespace slacksim;

namespace {

struct FileGuard
{
    explicit FileGuard(std::string p)
        : path(std::move(p))
    {
    }
    ~FileGuard() { std::remove(path.c_str()); }
    std::string path;
};

} // namespace

TEST(TraceIo, RoundTripPreservesEverything)
{
    WorkloadParams params;
    params.kernel = "water";
    params.numThreads = 4;
    params.molecules = 16;
    const Workload original = makeWorkload(params);

    FileGuard file(test::scratchPath("water_trace.bin"));
    saveWorkload(original, file.path);
    const Workload loaded = loadWorkload(file.path);

    EXPECT_EQ(loaded.name, original.name);
    EXPECT_EQ(loaded.numLocks, original.numLocks);
    EXPECT_EQ(loaded.numBarriers, original.numBarriers);
    EXPECT_EQ(loaded.sharedFootprintBytes,
              original.sharedFootprintBytes);
    ASSERT_EQ(loaded.threads.size(), original.threads.size());
    for (std::size_t t = 0; t < original.threads.size(); ++t) {
        EXPECT_EQ(loaded.threads[t].codeFootprint,
                  original.threads[t].codeFootprint);
        const auto &a = original.threads[t].instrs;
        const auto &b = loaded.threads[t].instrs;
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i)
            ASSERT_EQ(a[i].word(), b[i].word()) << "record " << i;
    }
}

TEST(TraceIo, RoundTripsTracesLongerThanAChunk)
{
    Workload original;
    original.name = "long";
    original.numBarriers = 1;
    original.threads.resize(2);
    for (std::size_t t = 0; t < original.threads.size(); ++t) {
        TraceBuilder b(original.threads[t]);
        b.barrier(0);
        for (std::size_t i = 0;
             i < ChunkedTrace::chunkRecords + 1000 * (t + 1); ++i) {
            b.load(0x10000 * (t + 1) + 8 * i, i % 3);
            b.store(0x80000 + 8 * i);
        }
        b.barrier(0);
        b.end();
    }

    FileGuard file(test::scratchPath("long_trace.bin"));
    saveWorkload(original, file.path);
    const Workload loaded = loadWorkload(file.path);
    ASSERT_EQ(loaded.threads.size(), original.threads.size());
    for (std::size_t t = 0; t < original.threads.size(); ++t) {
        const auto &a = original.threads[t].instrs;
        const auto &b = loaded.threads[t].instrs;
        ASSERT_GT(a.size(), 2 * ChunkedTrace::chunkRecords);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i)
            ASSERT_EQ(a[i].word(), b[i].word()) << "record " << i;
    }
}

TEST(TraceIo, MissingFileIsFatal)
{
    EXPECT_DEATH(loadWorkload("/nonexistent/path/trace.bin"),
                 "cannot open");
}

TEST(TraceIo, GarbageFileIsFatal)
{
    FileGuard file(test::scratchPath("garbage.bin"));
    {
        std::ofstream out(file.path, std::ios::binary);
        out << "this is not a trace file at all, not even close";
    }
    EXPECT_DEATH(loadWorkload(file.path), "not a slacksim trace");
}

TEST(TraceIo, TruncatedFileIsFatal)
{
    WorkloadParams params;
    params.kernel = "pingpong";
    params.numThreads = 2;
    params.iters = 10;
    const Workload w = makeWorkload(params);
    FileGuard file(test::scratchPath("truncated.bin"));
    saveWorkload(w, file.path);

    // Chop the file in half.
    std::ifstream in(file.path, std::ios::binary);
    std::stringstream whole;
    whole << in.rdbuf();
    const std::string bytes = whole.str();
    in.close();
    std::ofstream out(file.path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
    out.close();

    EXPECT_DEATH(loadWorkload(file.path), "short read");
}

namespace {

/**
 * Write a one-thread trace file by hand: format @p version, one
 * barrier, a thread with a @p code_footprint byte code footprint
 * that claims @p count records, then @p words.
 */
void
writeTraceFile(const std::string &path, std::uint32_t version,
               std::uint64_t count,
               std::initializer_list<std::uint64_t> words,
               std::uint64_t code_footprint = 4096)
{
    std::ofstream out(path, std::ios::binary);
    const auto put = [&out](const auto &v) {
        out.write(reinterpret_cast<const char *>(&v), sizeof(v));
    };
    put(std::uint64_t{0x534c4b54524330ull}); // "SLKTRC0"
    put(version);
    put(std::uint32_t{1});
    out.write("x", 1);
    put(std::uint32_t{0});    // locks
    put(std::uint32_t{1});    // barriers
    put(std::uint64_t{4096}); // shared footprint
    put(std::uint32_t{1});    // threads
    put(code_footprint);
    put(count);
    for (const std::uint64_t word : words)
        put(word);
}

} // namespace

TEST(TraceIo, OversizedRecordCountIsAShortRead)
{
    // Records are read a chunk at a time, so claiming 2^32 of them
    // costs one chunk, not a 32 GiB allocation.
    FileGuard file(test::scratchPath("oversized.bin"));
    const std::uint64_t barrier =
        TraceInstr::make(TraceOp::Barrier, 0).word();
    writeTraceFile(file.path, 2, std::uint64_t{1} << 32,
                   {barrier, barrier, barrier});
    EXPECT_DEATH(loadWorkload(file.path), "short read");
}

TEST(TraceIo, VersionOneFileIsRejected)
{
    FileGuard file(test::scratchPath("version1.bin"));
    writeTraceFile(file.path, 1, 0, {});
    EXPECT_DEATH(loadWorkload(file.path), "unsupported trace version 1");
}

TEST(TraceIo, UnknownOpIsRejectedOnLoad)
{
    FileGuard file(test::scratchPath("badop.bin"));
    // The first record's op bits read 7, which is no TraceOp.
    writeTraceFile(file.path, 2, 2,
                   {0x1007, TraceInstr::make(TraceOp::End, 0).word()});
    EXPECT_DEATH(loadWorkload(file.path), "unknown trace op 7");
}

TEST(TraceIo, ZeroCodeFootprintIsRejectedOnLoad)
{
    // The core takes its fetch address modulo the code footprint.
    FileGuard file(test::scratchPath("nocode.bin"));
    writeTraceFile(file.path, 2, 1,
                   {TraceInstr::make(TraceOp::End, 0).word()}, 0);
    EXPECT_DEATH(loadWorkload(file.path),
                 "thread 0 of 'x' has a zero code footprint");
}

TEST(Histogram, BucketsAndStats)
{
    Log2Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);

    h.add(0);
    h.add(1);
    h.add(2);
    h.add(3);
    h.add(100);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 106u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), 106.0 / 5);

    EXPECT_EQ(Log2Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Log2Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Log2Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Log2Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Log2Histogram::bucketOf(4), 3u);
    EXPECT_EQ(h.bucketCount(2), 2u); // values 2 and 3
}

TEST(Histogram, PercentilesAreMonotone)
{
    Log2Histogram h;
    for (std::uint64_t i = 1; i <= 1000; ++i)
        h.add(i);
    const auto p10 = h.percentile(10);
    const auto p50 = h.percentile(50);
    const auto p99 = h.percentile(99);
    EXPECT_LE(p10, p50);
    EXPECT_LE(p50, p99);
    EXPECT_LE(p99, h.max());
    EXPECT_GE(p50, 256u); // true p50 is 500; bucket upper bound >= it
}

TEST(Histogram, MergeAndClear)
{
    Log2Histogram a, b;
    a.add(5);
    a.add(10);
    b.add(100);
    a.add(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.max(), 100u);
    EXPECT_EQ(a.min(), 5u);
    a.clear();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.max(), 0u);
}

TEST(Histogram, PrintContainsSummary)
{
    Log2Histogram h;
    h.add(7);
    h.add(9);
    std::ostringstream os;
    h.print(os, "demo");
    EXPECT_NE(os.str().find("demo"), std::string::npos);
    EXPECT_NE(os.str().find("n=2"), std::string::npos);
    EXPECT_NE(os.str().find("#"), std::string::npos);
}

TEST(TraceStats, CountsOperationMixExactly)
{
    TraceProgram prog;
    TraceBuilder b(prog);
    b.barrier(0);
    b.compute(10);
    b.load(0x1000, 0);
    b.load(0x1008, 0); // same line as the first load
    b.store(0x2000);
    b.lock(0);
    b.unlock(0);
    b.barrier(0);
    b.end();
    Workload w;
    w.name = "tiny";
    w.numLocks = 1;
    w.numBarriers = 1;
    w.threads.push_back(prog);

    const WorkloadStats s = analyzeWorkload(w);
    EXPECT_EQ(s.threads, 1u);
    EXPECT_EQ(s.computeUops, 10u);
    EXPECT_EQ(s.loads, 2u);
    EXPECT_EQ(s.stores, 1u);
    EXPECT_EQ(s.lockPairs, 1u);
    EXPECT_EQ(s.barrierArrivals, 2u);
    EXPECT_EQ(s.totalUops(), 10u + 2 + 1 + 2 + 2);
    EXPECT_EQ(s.totalLines, 2u); // 0x1000-line and 0x2000-line
    EXPECT_EQ(s.sharedLines, 0u);
    EXPECT_EQ(s.maxSharers, 1u);
}

TEST(TraceStats, DetectsReadWriteSharing)
{
    Workload w;
    w.name = "sharing";
    w.numLocks = 0;
    w.numBarriers = 1;
    w.threads.resize(2);
    {
        TraceBuilder b(w.threads[0]);
        b.barrier(0);
        b.store(0x1000); // writer
        b.load(0x2000, 0); // read-only shared line
        b.end();
    }
    {
        TraceBuilder b(w.threads[1]);
        b.barrier(0);
        b.load(0x1000, 0); // reader of thread 0's line
        b.load(0x2000, 0);
        b.end();
    }
    const WorkloadStats s = analyzeWorkload(w);
    EXPECT_EQ(s.totalLines, 2u);
    EXPECT_EQ(s.sharedLines, 2u);
    EXPECT_EQ(s.rwSharedLines, 1u); // only the written line
    EXPECT_EQ(s.maxSharers, 2u);
    EXPECT_DOUBLE_EQ(s.sharedFraction(), 1.0);
}

TEST(TraceStats, SplashKernelsMatchTheirCharacters)
{
    WorkloadParams p;
    p.numThreads = 8;
    p.fftPoints = 1024;
    p.matrixN = 32;
    p.blockB = 8;
    p.molecules = 32;
    p.iters = 200;
    p.footprintBytes = 64 * 1024;

    p.kernel = "stream";
    const auto s_stream = analyzeWorkload(makeWorkload(p));
    EXPECT_DOUBLE_EQ(s_stream.sharedFraction(), 0.0);

    p.kernel = "falseshare";
    const auto s_false = analyzeWorkload(makeWorkload(p));
    EXPECT_GT(s_false.sharedFraction(), 0.9);
    EXPECT_EQ(s_false.maxSharers, 8u);

    p.kernel = "fft";
    const auto s_fft = analyzeWorkload(makeWorkload(p));
    EXPECT_GT(s_fft.sharedFraction(), 0.3); // transposes share rows
    EXPECT_GT(s_fft.rwSharedLines, 100u);

    p.kernel = "water";
    const auto s_water = analyzeWorkload(makeWorkload(p));
    EXPECT_GT(s_water.lockPairs, 100u); // per-molecule locks
}

TEST(TraceStats, PrintIsReadable)
{
    WorkloadParams p;
    p.kernel = "pingpong";
    p.numThreads = 4;
    p.iters = 10;
    const auto s = analyzeWorkload(makeWorkload(p));
    std::ostringstream os;
    printWorkloadStats(os, "pingpong", s);
    EXPECT_NE(os.str().find("micro-ops"), std::string::npos);
    EXPECT_NE(os.str().find("shared lines"), std::string::npos);
}
