/**
 * @file
 * Trace-side recorder tests: ring wraparound and overflow accounting,
 * span begin/end pairing through the registry, per-thread collection
 * from concurrent producers, the one-clock contract (engine-run opens
 * at the anchor; a committed scope's span matches its profile time),
 * and a golden test that a traced engine run emits a parseable
 * Chrome-trace JSON containing the expected span names.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/run.hh"
#include "obs/chrome_trace.hh"
#include "obs/recorder.hh"
#include "obs/trace_buffer.hh"
#include "scratch_path.hh"
#include "util/json_parse.hh"
#include "util/logging.hh"

using namespace slacksim;
using namespace slacksim::obs;

namespace {

TraceRecord
record(Tick cycle, const char *name = "ev",
       TraceType type = TraceType::Instant)
{
    TraceRecord r;
    r.wallNs = cycle;
    r.cycle = cycle;
    r.name = name;
    r.arg = 0;
    r.arg2 = 0;
    r.type = type;
    r.category = TraceCategory::Core;
    return r;
}

/**
 * Minimal JSON validity checker, enough for the golden test: parses
 * the full value grammar (objects, arrays, strings with escapes,
 * numbers, literals) and requires every byte to be consumed.
 */
class MiniJson
{
  public:
    explicit MiniJson(const std::string &text) : s_(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
            }
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-')) {
            ++pos_;
        }
        return pos_ > start;
    }

    bool
    literal(const char *lit)
    {
        const std::string l(lit);
        if (s_.compare(pos_, l.size(), l) != 0)
            return false;
        pos_ += l.size();
        return true;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

/** Run @p config with the trace sink at a temp path, slurp the file
 *  back as parsed JSON, and delete it. */
json::Value
traceFromRun(SimConfig config, const std::string &stem,
             RunResult *result = nullptr)
{
    setQuietLogging(true);
    const std::string path = test::scratchPath(stem + ".json");
    config.engine.obs.traceOut = path;
    const RunResult r = runSimulation(config);
    if (result)
        *result = r;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "trace file missing: " << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::remove(path.c_str());
    return json::parse(buffer.str());
}

/**
 * Walk every duration event and require begin/end discipline per
 * (tid, name): running depth never goes negative and ends balanced —
 * a rewound epoch must close its spans, never leak them. @return the
 * per-name event counts ("B ph" for spans, all phs for the rest) so
 * callers can assert on the episode markers they expect.
 */
std::map<std::string, int>
checkSpanDiscipline(const json::Value &doc)
{
    std::map<std::string, int> names;
    std::map<std::pair<long long, std::string>, int> depth;
    EXPECT_TRUE(doc.has("traceEvents"));
    for (const auto &ev : doc.at("traceEvents").array) {
        const std::string ph = ev.at("ph").asString();
        const std::string name = ev.at("name").asString();
        if (ph == "B" || ph == "i")
            ++names[name];
        if (ph != "B" && ph != "E")
            continue;
        const auto key = std::make_pair(
            static_cast<long long>(ev.at("tid").asNumber()), name);
        depth[key] += ph == "B" ? 1 : -1;
        EXPECT_GE(depth[key], 0)
            << "span '" << name << "' ended before it began on tid "
            << key.first;
    }
    for (const auto &[key, d] : depth) {
        EXPECT_EQ(d, 0) << "span '" << key.second
                        << "' leaked open on tid " << key.first;
    }
    return names;
}

/** Serial speculative baseline that checkpoints every 1000 cycles
 *  (mirrors fault_injection_test's specConfig). */
SimConfig
rollbackConfig()
{
    SimConfig config;
    config.workload.kernel = "falseshare";
    config.workload.numThreads = config.target.numCores;
    config.workload.iters = 2000;
    config.workload.footprintBytes = 64 * 1024;
    config.engine.parallelHost = false;
    config.engine.scheme = SchemeKind::Adaptive;
    config.engine.adaptive.targetViolationRate = 0.05;
    config.engine.adaptive.initialBound = 64;
    config.engine.checkpoint.mode = CheckpointMode::Speculative;
    config.engine.checkpoint.interval = 1000;
    return config;
}

} // namespace

TEST(TraceRing, FifoDrainAndCapacity)
{
    TraceRing ring(8);
    EXPECT_GE(ring.capacity(), 8u);
    for (Tick t = 0; t < 5; ++t)
        ring.push(record(t));
    std::vector<TraceRecord> out;
    EXPECT_EQ(ring.drain(out), 5u);
    ASSERT_EQ(out.size(), 5u);
    for (Tick t = 0; t < 5; ++t)
        EXPECT_EQ(out[t].cycle, t);
    EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceRing, WraparoundAcrossManyDrains)
{
    TraceRing ring(4);
    std::vector<TraceRecord> out;
    Tick next = 0;
    // Push/drain far past the physical size: indices must wrap
    // without losing order or records.
    for (int round = 0; round < 100; ++round) {
        ring.push(record(next));
        ring.push(record(next + 1));
        out.clear();
        ASSERT_EQ(ring.drain(out), 2u);
        EXPECT_EQ(out[0].cycle, next);
        EXPECT_EQ(out[1].cycle, next + 1);
        next += 2;
    }
    EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceRing, OverflowDropsNewestAndCounts)
{
    TraceRing ring(4);
    const std::size_t cap = ring.capacity();
    for (Tick t = 0; t < static_cast<Tick>(cap) + 10; ++t)
        ring.push(record(t));
    EXPECT_EQ(ring.dropped(), 10u);
    std::vector<TraceRecord> out;
    EXPECT_EQ(ring.drain(out), cap);
    // Drop-new policy: the oldest records survive, the overflow is
    // the tail that never entered.
    for (std::size_t i = 0; i < cap; ++i)
        EXPECT_EQ(out[i].cycle, static_cast<Tick>(i));
    // After draining there is room again.
    ring.push(record(999));
    out.clear();
    EXPECT_EQ(ring.drain(out), 1u);
    EXPECT_EQ(out[0].cycle, 999u);
}

TEST(RecorderTrace, SpanBeginEndPairing)
{
    Recorder &rec = Recorder::instance();
    ASSERT_TRUE(rec.begin(captureClockAnchor(), 64));
    rec.registerThread("pairing");
    traceBegin(TraceCategory::Engine, "outer", 10);
    traceBegin(TraceCategory::Core, "inner", 11);
    traceEnd(TraceCategory::Core, "inner", 12);
    traceEnd(TraceCategory::Engine, "outer", 13);
    const auto traces = rec.end().traces;

    ASSERT_EQ(traces.size(), 1u);
    const auto &records = traces[0].records;
    ASSERT_EQ(records.size(), 4u);
    // Properly nested begin/end pairs in emission order.
    EXPECT_EQ(records[0].type, TraceType::Begin);
    EXPECT_STREQ(records[0].name, "outer");
    EXPECT_EQ(records[1].type, TraceType::Begin);
    EXPECT_STREQ(records[1].name, "inner");
    EXPECT_EQ(records[2].type, TraceType::End);
    EXPECT_STREQ(records[2].name, "inner");
    EXPECT_EQ(records[3].type, TraceType::End);
    EXPECT_STREQ(records[3].name, "outer");
    EXPECT_EQ(traces[0].dropped, 0u);
}

TEST(RecorderTrace, EmitWithoutSessionIsNoOp)
{
    Recorder &rec = Recorder::instance();
    ASSERT_FALSE(rec.active());
    traceInstant(TraceCategory::Bus, "ignored", 1);
    ASSERT_TRUE(rec.begin(captureClockAnchor(), 64));
    // Emission before registration is also dropped silently.
    traceInstant(TraceCategory::Bus, "ignored", 2);
    const auto traces = rec.end().traces;
    EXPECT_TRUE(traces.empty());
}

TEST(RecorderTrace, OnlyOneSessionAtATime)
{
    Recorder &rec = Recorder::instance();
    ASSERT_TRUE(rec.begin(captureClockAnchor(), 64));
    EXPECT_FALSE(rec.begin(captureClockAnchor(), 64));
    rec.end();
    EXPECT_TRUE(rec.begin(captureClockAnchor(), 64));
    rec.end();
}

TEST(RecorderTrace, CollectsEveryProducerInEmitOrder)
{
    Recorder &rec = Recorder::instance();
    ASSERT_TRUE(rec.begin(captureClockAnchor(), 256));

    // Three producer threads, interleaved simulated cycles.
    std::vector<std::thread> workers;
    for (int t = 0; t < 3; ++t) {
        workers.emplace_back([t, &rec] {
            rec.registerThread("worker " + std::to_string(t));
            for (Tick c = 0; c < 50; ++c) {
                traceInstant(TraceCategory::Core, "tick",
                             c * 3 + static_cast<Tick>(t),
                             static_cast<std::int64_t>(t));
            }
            rec.unregisterThread();
        });
    }
    for (auto &w : workers)
        w.join();

    const auto traces = rec.end().traces;
    ASSERT_EQ(traces.size(), 3u);
    // One track per producer, each holding its 50 records in emit
    // order: the cycles that thread stamped, 3*c + t for c = 0..49.
    std::set<std::int64_t> producers;
    for (const auto &trace : traces) {
        ASSERT_EQ(trace.records.size(), 50u) << trace.role;
        EXPECT_EQ(trace.dropped, 0u) << trace.role;
        const std::int64_t t = trace.records.front().arg;
        EXPECT_EQ(trace.role, "worker " + std::to_string(t));
        producers.insert(t);
        for (std::size_t c = 0; c < trace.records.size(); ++c) {
            EXPECT_EQ(trace.records[c].arg, t) << trace.role;
            EXPECT_EQ(trace.records[c].cycle,
                      static_cast<Tick>(c * 3 + t))
                << trace.role << " record " << c;
        }
    }
    EXPECT_EQ(producers.size(), 3u);
}

TEST(RecorderTrace, ShortCommittedSpansAreFiltered)
{
    // The flood filter: a committed scope shorter than its floor
    // leaves no span, while the phase time is still attributed.
    Recorder &rec = Recorder::instance();
    ASSERT_TRUE(rec.begin(captureClockAnchor(), 64));
    rec.registerThread("filter");
    {
        Scope quick(Phase::WaitInbound);
        quick.commit(TraceCategory::Core, "core-park", 1, 1, 0,
                     /*min_ns=*/1'000'000'000);
    }
    {
        Scope kept(Phase::WaitInbound);
        kept.commit(TraceCategory::Core, "core-park", 2, 2, 0,
                    /*min_ns=*/0);
    }
    const Recorder::Result r = rec.end();
    ASSERT_EQ(r.traces.size(), 1u);
    ASSERT_EQ(r.traces[0].records.size(), 2u);
    EXPECT_EQ(r.traces[0].records[0].cycle, 2u);
    EXPECT_EQ(r.traces[0].records[1].cycle, 2u);
    ASSERT_EQ(r.profile.workers.size(), 1u);
    for (const auto &p : r.profile.workers[0].phases) {
        if (p.name == "wait-inbound") {
            EXPECT_EQ(p.count, 2u);
        }
    }
}

TEST(OneClock, CommittedScopeSpanMatchesItsProfileTime)
{
    // Trace and profile both read the scope's own two counter reads:
    // the exported B/E pair and the profile's exclusive time for the
    // scope are one measurement, converted by one calibration.
    Recorder &rec = Recorder::instance();
    ASSERT_TRUE(rec.begin(captureClockAnchor(), 64));
    rec.registerThread("one clock");
    {
        Scope scope(Phase::Checkpoint);
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::microseconds(300);
        while (std::chrono::steady_clock::now() < until) {
        }
        scope.commit(TraceCategory::Checkpoint, "checkpoint", 7, 7, 42);
    }
    const Recorder::Result r = rec.end();

    ASSERT_EQ(r.traces.size(), 1u);
    const auto &records = r.traces[0].records;
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].type, TraceType::Begin);
    EXPECT_EQ(records[1].type, TraceType::End);
    EXPECT_STREQ(records[0].name, "checkpoint");
    EXPECT_EQ(records[1].arg, 42);
    ASSERT_GE(records[1].wallNs, records[0].wallNs);
    const std::uint64_t span_ns = records[1].wallNs - records[0].wallNs;
    EXPECT_GE(span_ns, 250'000u); // the 300 µs spin, calibration slack

    ASSERT_EQ(r.profile.workers.size(), 1u);
    std::uint64_t profile_ns = 0;
    for (const auto &p : r.profile.workers[0].phases) {
        if (p.name == "checkpoint") {
            EXPECT_EQ(p.count, 1u);
            profile_ns = p.ns;
        }
    }
    const std::uint64_t diff = span_ns > profile_ns
                                   ? span_ns - profile_ns
                                   : profile_ns - span_ns;
    EXPECT_LE(diff, 1000u) << "span " << span_ns << " ns vs profile "
                           << profile_ns << " ns";
}

TEST(OneClock, EngineRunOpensAtTheAnchor)
{
    // The session anchor is t0 of the whole trace: engine-run's B is
    // stamped with it (ts 0), nothing precedes it, and the same anchor
    // rides in the metadata — for both engines.
    for (const bool parallel : {false, true}) {
        SimConfig config;
        config.workload.kernel = "uniform";
        config.target.numCores = 4;
        config.workload.numThreads = 4;
        config.workload.iters = 200;
        config.workload.footprintBytes = 16 * 1024;
        config.engine.scheme = SchemeKind::Bounded;
        config.engine.maxCommittedUops = 2000;
        config.engine.parallelHost = parallel;
        if (parallel)
            config.engine.hostThreads = 3;
        config.engine.obs.profile = true;
        RunResult r;
        const json::Value doc = traceFromRun(
            config, parallel ? "obs_trace_t0_par" : "obs_trace_t0_ser",
            &r);

        double engine_run_ts = -1.0;
        double min_ts = 1e300;
        for (const auto &ev : doc.at("traceEvents").array) {
            if (ev.at("ph").asString() == "M")
                continue;
            const double ts = ev.at("ts").asNumber();
            min_ts = std::min(min_ts, ts);
            if (ev.at("name").asString() == "engine-run" &&
                ev.at("ph").asString() == "B") {
                engine_run_ts = ts;
            }
        }
        EXPECT_EQ(engine_run_ts, 0.0) << "parallel=" << parallel;
        EXPECT_EQ(min_ts, 0.0) << "parallel=" << parallel;

        ASSERT_TRUE(doc.has("metadata"));
        const json::Value &anchor =
            doc.at("metadata").at("clock_anchor");
        const ClockAnchor &a = r.forensics.trace.anchor;
        EXPECT_EQ(anchor.at("wall_us").asNumber(),
                  static_cast<double>(a.wallUs));
        EXPECT_EQ(anchor.at("tsc").asNumber(),
                  static_cast<double>(a.tsc));
        // The profile's wall time runs from the same anchor, so it
        // covers engine-run's whole span.
        ASSERT_TRUE(r.forensics.profile.enabled);
        for (const auto &ev : doc.at("traceEvents").array) {
            if (ev.at("name").asString() == "engine-run" &&
                ev.at("ph").asString() == "E") {
                EXPECT_LE(ev.at("ts").asNumber() * 1000.0,
                          static_cast<double>(
                              r.forensics.profile.wallNs) + 1000.0);
            }
        }
    }
}

TEST(ChromeTrace, GoldenSpansFromTinyEngineRun)
{
    setQuietLogging(true);
    const std::string path =
        test::scratchPath("obs_trace_golden.json");

    SimConfig config;
    config.workload.kernel = "uniform";
    config.target.numCores = 4;
    config.workload.numThreads = 4;
    config.workload.iters = 800;
    config.workload.footprintBytes = 32 * 1024;
    config.engine.scheme = SchemeKind::Bounded;
    config.engine.slackBound = 8;
    config.engine.maxCommittedUops = 6000;
    config.engine.parallelHost = true;
    // Pin the host topology: the golden needles below assert on the
    // worker thread names, which the auto policy would elide on a
    // single-CPU host (inline mode).
    config.engine.hostThreads = 3;
    config.engine.checkpoint.mode = CheckpointMode::Measure;
    config.engine.checkpoint.interval = 1000;
    config.engine.obs.traceOut = path;
    runSimulation(config);

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "trace file missing: " << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string json = buffer.str();
    ASSERT_FALSE(json.empty());

    MiniJson parser(json);
    EXPECT_TRUE(parser.valid()) << "trace JSON does not parse";

    for (const char *needle :
         {"\"traceEvents\"", "\"core-run\"", "\"manager-service\"",
          "\"checkpoint\"", "\"engine-run\"", "\"thread_name\"",
          "\"manager\"", "\"worker 0\""}) {
        EXPECT_NE(json.find(needle), std::string::npos)
            << "missing " << needle;
    }
    // The rings were sized by the default 1 MiB budget; a tiny run
    // must never overflow them.
    EXPECT_EQ(json.find("trace-overflow"), std::string::npos);

    std::remove(path.c_str());
}

TEST(ChromeTrace, WriterEscapesAndOrdersRecords)
{
    std::vector<ThreadTrace> traces(1);
    traces[0].role = "core \"0\"\\";
    traces[0].tid = 0;
    // Deliberately out of wall order: the writer sorts by wallNs.
    TraceRecord late = record(7, "late", TraceType::Instant);
    late.wallNs = 2000;
    TraceRecord early = record(3, "early", TraceType::Instant);
    early.wallNs = 1000;
    traces[0].records = {late, early};

    std::ostringstream os;
    writeChromeTrace(os, traces);
    const std::string json = os.str();

    MiniJson parser(json);
    EXPECT_TRUE(parser.valid()) << json;
    EXPECT_NE(json.find("core \\\"0\\\"\\\\"), std::string::npos);
    EXPECT_LT(json.find("\"early\""), json.find("\"late\""));
}

TEST(TraceRollback, SerialReplaySpansClosedAndAttributed)
{
    // A spurious rollback rewinds the serial engine one interval; the
    // exported trace must attribute the episode (rollback span,
    // violation-rollback instant, replay window) and close every span
    // it opened in the rewound epoch.
    SimConfig config = rollbackConfig();
    config.engine.faultSpecs = {"spurious-rollback@ckpt:2"};
    RunResult r;
    const json::Value doc =
        traceFromRun(config, "obs_trace_rb_serial", &r);
    EXPECT_GT(r.host.rollbacks, 0u);

    const auto names = checkSpanDiscipline(doc);
    EXPECT_GT(names.count("rollback"), 0u);
    EXPECT_GT(names.count("replay"), 0u);
    EXPECT_GT(names.count("violation-rollback"), 0u);
    // One replay window per successful in-memory restore.
    EXPECT_EQ(names.at("replay"),
              static_cast<int>(r.host.rollbacks));
}

TEST(TraceRollback, ParallelReplaySpansClosed)
{
    // Same episode on the threaded engine: worker tracks and the
    // manager must still export balanced spans across the rewind.
    SimConfig config = rollbackConfig();
    config.engine.parallelHost = true;
    config.engine.hostThreads = 3;
    config.engine.faultSpecs = {"spurious-rollback@ckpt:2"};
    RunResult r;
    const json::Value doc =
        traceFromRun(config, "obs_trace_rb_parallel", &r);
    EXPECT_GT(r.host.rollbacks, 0u);

    const auto names = checkSpanDiscipline(doc);
    EXPECT_GT(names.count("rollback"), 0u);
    EXPECT_GT(names.count("replay"), 0u);
    EXPECT_GT(names.count("violation-rollback"), 0u);
}

TEST(TraceRollback, DegradationLadderMarkedWithoutLeaks)
{
    // Corrupt the only checkpoint generation, then force a rollback
    // into it: the restore demotes down the degradation ladder
    // instead of replaying. The trace must carry the degradation
    // instant and stay leak-free even though no replay window opened.
    SimConfig config = rollbackConfig();
    config.engine.faultSpecs = {
        "snapshot-corrupt@ckpt:1,spurious-rollback@ckpt:1"};
    RunResult r;
    const json::Value doc =
        traceFromRun(config, "obs_trace_rb_demote", &r);

    const auto names = checkSpanDiscipline(doc);
    EXPECT_GT(names.count("degradation"), 0u);
}

TEST(TraceSpanIdentity, MetadataCarriesTraceAndClockAnchor)
{
    // When a distributed-trace identity rides in on the config (the
    // daemon's submit path), the engine trace must export it with a
    // clock anchor so the fleet merger can place this process on the
    // shared wall-clock axis.
    SimConfig config;
    config.workload.kernel = "uniform";
    config.target.numCores = 2;
    config.workload.numThreads = 2;
    config.workload.iters = 200;
    config.workload.footprintBytes = 16 * 1024;
    config.engine.scheme = SchemeKind::Bounded;
    config.engine.maxCommittedUops = 2000;
    config.engine.parallelHost = false;
    config.engine.obs.traceId = "00000000deadbeef";
    config.engine.obs.parentSpanId = 0x1234u;
    const json::Value doc =
        traceFromRun(config, "obs_trace_identity");

    ASSERT_TRUE(doc.has("metadata"));
    const json::Value &meta = doc.at("metadata");
    EXPECT_EQ(meta.at("trace_id").asString(), "00000000deadbeef");
    EXPECT_EQ(meta.at("parent_span_id").asString(),
              "0000000000001234");
    // The session minted its own span under that parent.
    const std::string span = meta.at("span_id").asString();
    EXPECT_EQ(span.size(), 16u);
    EXPECT_NE(span, "0000000000000000");
    EXPECT_GT(meta.at("pid").asNumber(), 0.0);
    const json::Value &anchor = meta.at("clock_anchor");
    EXPECT_GT(anchor.at("wall_us").asNumber(), 0.0);
    EXPECT_GT(anchor.at("steady_ns").asNumber(), 0.0);
}

TEST(TraceSpanIdentity, StandaloneRunMintsItsOwnTraceId)
{
    // No identity supplied: runSimulation() mints a fresh trace id so
    // a standalone run is still joinable by id after the fact.
    SimConfig config;
    config.workload.kernel = "uniform";
    config.target.numCores = 2;
    config.workload.numThreads = 2;
    config.workload.iters = 200;
    config.workload.footprintBytes = 16 * 1024;
    config.engine.scheme = SchemeKind::Bounded;
    config.engine.maxCommittedUops = 2000;
    config.engine.parallelHost = false;
    const json::Value doc =
        traceFromRun(config, "obs_trace_minted");

    ASSERT_TRUE(doc.has("metadata"));
    const std::string id =
        doc.at("metadata").at("trace_id").asString();
    EXPECT_EQ(id.size(), 16u);
    for (const char c : id)
        EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c)))
            << id;
}
