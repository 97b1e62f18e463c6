/**
 * @file
 * Validates the slacksim.run_report.v5 document end to end: every
 * section and key the schema promises, exact agreement between the
 * forensics attribution tables and the run's violation counters, a
 * replayable adaptive decision chain, and the observe example's
 * --report-out flag driven through a real child process.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/run.hh"
#include "json_lite.hh"
#include "obs/run_report.hh"
#include "scratch_path.hh"

using namespace slacksim;

namespace {

SimConfig
smallConfig(SchemeKind scheme, bool parallel_host)
{
    SimConfig config;
    config.workload.kernel = "falseshare";
    config.workload.numThreads = config.target.numCores;
    config.workload.iters = 300;
    config.workload.footprintBytes = 64 * 1024;
    config.engine.scheme = scheme;
    config.engine.parallelHost = parallel_host;
    config.engine.maxCommittedUops = 30000;
    return config;
}

jsonlite::Value
runAndParse(SimConfig config, const std::string &name,
            RunResult *result_out = nullptr)
{
    const std::string path = test::scratchPath(name);
    config.engine.obs.reportOut = path;
    const RunResult r = runSimulation(config);
    if (result_out)
        *result_out = r;
    std::ifstream is(path);
    EXPECT_TRUE(is.good()) << "report not written: " << path;
    std::stringstream ss;
    ss << is.rdbuf();
    return jsonlite::parse(ss.str());
}

/** The keys every v4 report must carry, section by section. */
void
expectSchemaComplete(const jsonlite::Value &doc)
{
    EXPECT_EQ(doc.at("schema").asString(), obs::runReportSchema);

    const auto &generator = doc.at("generator");
    EXPECT_EQ(generator.at("name").asString(), "slacksim");
    EXPECT_TRUE(generator.has("host_threads"));

    // v4: correlation id (empty standalone) and build provenance.
    EXPECT_TRUE(doc.has("job_id"));
    const auto &build = generator.at("build");
    for (const char *key :
         {"git", "dirty", "compiler", "build_type", "obs",
          "sanitize"}) {
        EXPECT_TRUE(build.has(key)) << "generator.build." << key;
    }
    EXPECT_FALSE(build.at("git").asString().empty());
    EXPECT_TRUE(doc.at("forensics").has("job_id"));

    const auto &config = doc.at("config");
    for (const char *key :
         {"workload", "cores", "scheme", "parallel_host", "slack_bound",
          "quantum", "adaptive", "checkpoint", "recovery", "obs"}) {
        EXPECT_TRUE(config.has(key)) << "config." << key;
    }
    for (const char *key :
         {"storm_threshold", "storm_window", "pinned_epoch_limit",
          "repromote_after"}) {
        EXPECT_TRUE(config.at("recovery").has(key))
            << "config.recovery." << key;
    }
    for (const char *key :
         {"target_rate", "band", "epoch_cycles", "initial_bound",
          "min_bound", "max_bound", "windowed_rate"}) {
        EXPECT_TRUE(config.at("adaptive").has(key))
            << "config.adaptive." << key;
    }
    for (const char *key :
         {"mode", "tech", "interval", "child_timeout_ms"})
        EXPECT_TRUE(config.at("checkpoint").has(key));
    for (const char *key :
         {"trace_out", "metrics_out", "report_out", "watchdog_ms",
          "profile", "profile_out", "job_id"}) {
        EXPECT_TRUE(config.at("obs").has(key)) << "config.obs." << key;
    }

    const auto &result = doc.at("result");
    for (const char *key :
         {"exec_cycles", "global_cycles", "committed_uops", "ipc",
          "cpi", "wall_seconds", "violations", "host",
          "final_slack_bound", "intervals"}) {
        EXPECT_TRUE(result.has(key)) << "result." << key;
    }
    for (const char *key : {"bus", "map", "bus_rate", "map_rate"})
        EXPECT_TRUE(result.at("violations").has(key));
    for (const char *key :
         {"checkpoints", "checkpoint_bytes", "checkpoint_seconds",
          "checkpoint_async_seconds", "rollbacks", "wasted_cycles",
          "replay_cycles", "slack_adjustments", "manager_wakeups",
          "manager_rounds", "core_evaluations", "inert_reentries",
          "max_observed_slack", "host_threads_used"}) {
        EXPECT_TRUE(result.at("host").has(key)) << "result.host." << key;
    }

    const auto &forensics = doc.at("forensics");
    const auto &fv = forensics.at("violations");
    for (const char *key : {"bus_total", "map_total", "slack_histogram",
                            "pairs", "top_offenders",
                            "untracked_buckets"}) {
        EXPECT_TRUE(fv.has(key)) << "forensics.violations." << key;
    }
    for (const char *side : {"bus", "map"}) {
        const auto &h = fv.at("slack_histogram").at(side);
        for (const char *key : {"count", "mean", "p50", "p95", "max"})
            EXPECT_TRUE(h.has(key)) << side << "." << key;
    }
    for (const char *key :
         {"decisions", "decisions_dropped", "episodes",
          "episodes_dropped", "transitions", "transitions_dropped"}) {
        EXPECT_TRUE(forensics.has(key)) << "forensics." << key;
    }

    const auto &degradation = doc.at("degradation");
    for (const char *key : {"level", "demotions", "repromotions",
                            "storm_threshold", "repromote_after"}) {
        EXPECT_TRUE(degradation.has(key)) << "degradation." << key;
    }

    const auto &faults = doc.at("faults");
    for (const char *key : {"spec_count", "seed", "injections"})
        EXPECT_TRUE(faults.has(key)) << "faults." << key;

    const auto &obs = doc.at("obs");
    for (const char *key :
         {"trace_records", "trace_dropped", "trace_bytes",
          "metrics_rows", "metrics_bytes", "sampler_host_ns",
          "io_errors"}) {
        EXPECT_TRUE(obs.has(key)) << "obs." << key;
    }

    const auto &watchdog = doc.at("watchdog");
    for (const char *key : {"enabled", "stall_ms", "stall_dumps"})
        EXPECT_TRUE(watchdog.has(key)) << "watchdog." << key;

    // v3: the profile section is always present; with profiling off it
    // carries enabled=false and empty arrays.
    const auto &profile = doc.at("profile");
    for (const char *key :
         {"enabled", "wall_ns", "attributed_ns", "tsc_ghz", "phases",
          "workers", "hw", "verdict"}) {
        EXPECT_TRUE(profile.has(key)) << "profile." << key;
    }
    for (const char *key :
         {"available", "reason", "cycles", "instructions",
          "cache_misses"}) {
        EXPECT_TRUE(profile.at("hw").has(key)) << "profile.hw." << key;
    }
}

/** Forensic attribution must sum exactly to the run's counters. */
void
expectAttributionExact(const jsonlite::Value &doc)
{
    const auto &rv = doc.at("result").at("violations");
    const auto &fv = doc.at("forensics").at("violations");
    EXPECT_EQ(fv.at("bus_total").asUint(), rv.at("bus").asUint());
    EXPECT_EQ(fv.at("map_total").asUint(), rv.at("map").asUint());

    std::uint64_t pair_bus = 0;
    std::uint64_t pair_map = 0;
    for (const auto &p : fv.at("pairs").array) {
        EXPECT_TRUE(p.has("requester"));
        EXPECT_TRUE(p.has("prior"));
        pair_bus += p.at("bus").asUint();
        pair_map += p.at("map").asUint();
    }
    EXPECT_EQ(pair_bus, fv.at("bus_total").asUint());
    EXPECT_EQ(pair_map, fv.at("map_total").asUint());

    EXPECT_EQ(fv.at("slack_histogram").at("bus").at("count").asUint(),
              fv.at("bus_total").asUint());
    EXPECT_EQ(fv.at("slack_histogram").at("map").at("count").asUint(),
              fv.at("map_total").asUint());
}

} // namespace

TEST(RunReport, SerialAdaptiveSchemaAndAttribution)
{
    SimConfig config = smallConfig(SchemeKind::Adaptive, false);
    config.engine.adaptive.targetViolationRate = 0.002;
    config.engine.adaptive.epochCycles = 500;

    RunResult r;
    const auto doc = runAndParse(config, "report_serial.json", &r);
    expectSchemaComplete(doc);
    expectAttributionExact(doc);
    EXPECT_GT(doc.at("result").at("violations").at("bus").asUint() +
                  doc.at("result").at("violations").at("map").asUint(),
              0u)
        << "run produced no violations; attribution test is vacuous";

    // The document mirrors the in-process result.
    EXPECT_EQ(doc.at("result").at("committed_uops").asUint(),
              r.committedUops);
    EXPECT_EQ(doc.at("result").at("final_slack_bound").asUint(),
              r.finalSlackBound);
    EXPECT_FALSE(doc.at("config").at("parallel_host").asBool());

    // The engine's own work counts mirror the in-process result.
    const auto &host = doc.at("result").at("host");
    EXPECT_GT(r.host.managerRounds, 0u);
    EXPECT_GT(r.host.coreEvaluations, 0u);
    EXPECT_GT(r.host.inertReentries, 0u);
    EXPECT_EQ(host.at("manager_rounds").asUint(), r.host.managerRounds);
    EXPECT_EQ(host.at("core_evaluations").asUint(),
              r.host.coreEvaluations);
    EXPECT_EQ(host.at("inert_reentries").asUint(), r.host.inertReentries);

    // The decision log replays every slack-bound change.
    const auto &decisions = doc.at("forensics").at("decisions").array;
    ASSERT_FALSE(decisions.empty());
    std::uint64_t changes = 0;
    for (std::size_t i = 0; i < decisions.size(); ++i) {
        const auto &d = decisions[i];
        for (const char *key :
             {"cycle", "rate", "verdict", "old_bound", "new_bound"})
            ASSERT_TRUE(d.has(key)) << "decision." << key;
        if (i > 0) {
            EXPECT_EQ(d.at("old_bound").asUint(),
                      decisions[i - 1].at("new_bound").asUint())
                << "chain broken at " << i;
        }
        if (d.at("new_bound").asUint() != d.at("old_bound").asUint() &&
            d.at("verdict").asString() != "restored") {
            ++changes;
        }
    }
    EXPECT_EQ(changes,
              doc.at("result").at("host").at("slack_adjustments")
                  .asUint());
    EXPECT_EQ(decisions.back().at("new_bound").asUint(),
              doc.at("result").at("final_slack_bound").asUint());
}

TEST(RunReport, ParallelAdaptiveWithQuietWatchdog)
{
    SimConfig config = smallConfig(SchemeKind::Adaptive, true);
    config.engine.adaptive.targetViolationRate = 0.002;
    config.engine.adaptive.epochCycles = 500;
    config.engine.obs.watchdogMs = 60000; // armed but silent

    const auto doc = runAndParse(config, "report_parallel.json");
    expectSchemaComplete(doc);
    expectAttributionExact(doc);
    EXPECT_TRUE(doc.at("config").at("parallel_host").asBool());
    EXPECT_TRUE(doc.at("watchdog").at("enabled").asBool());
    EXPECT_EQ(doc.at("watchdog").at("stall_ms").asUint(), 60000u);
    EXPECT_EQ(doc.at("watchdog").at("stall_dumps").asUint(), 0u);
}

TEST(RunReport, SpeculativeRollbacksKeepLedgerExact)
{
    SimConfig config = smallConfig(SchemeKind::Adaptive, false);
    config.engine.adaptive.targetViolationRate = 1e-5;
    config.engine.adaptive.epochCycles = 500;
    config.engine.checkpoint.mode = CheckpointMode::Speculative;
    config.engine.checkpoint.interval = 2000;

    RunResult r;
    const auto doc = runAndParse(config, "report_spec.json", &r);
    expectSchemaComplete(doc);
    expectAttributionExact(doc);
    EXPECT_GT(doc.at("result").at("host").at("rollbacks").asUint(), 0u)
        << "no rollbacks; snapshot participation untested";

    // Episodes cover every checkpoint and rollback the host counted.
    std::uint64_t ckpts = 0;
    std::uint64_t rollbacks = 0;
    for (const auto &e : doc.at("forensics").at("episodes").array) {
        const std::string kind = e.at("kind").asString();
        if (kind == "checkpoint")
            ++ckpts;
        else if (kind == "rollback")
            ++rollbacks;
        else
            EXPECT_EQ(kind, "replay");
    }
    EXPECT_EQ(ckpts,
              doc.at("result").at("host").at("checkpoints").asUint());
    EXPECT_EQ(rollbacks,
              doc.at("result").at("host").at("rollbacks").asUint());
}

TEST(RunReport, FaultInjectionAndDegradationAttributed)
{
    SimConfig config = smallConfig(SchemeKind::Adaptive, false);
    config.engine.adaptive.targetViolationRate = 1e-5;
    config.engine.adaptive.epochCycles = 500;
    config.engine.checkpoint.mode = CheckpointMode::Speculative;
    config.engine.checkpoint.interval = 2000;
    config.engine.faultSpecs = {"spurious-rollback@ckpt:2"};
    config.engine.faultSeed = 7;

    const auto doc = runAndParse(config, "report_faulted.json");
    expectSchemaComplete(doc);

    const auto &faults = doc.at("faults");
    EXPECT_EQ(faults.at("spec_count").asUint(), 1u);
    EXPECT_EQ(faults.at("seed").asUint(), 7u);
    const auto &injections = faults.at("injections").array;
    ASSERT_EQ(injections.size(), 1u);
    for (const char *key :
         {"kind", "trigger", "cycle", "detail", "handled_by"})
        EXPECT_TRUE(injections[0].has(key)) << "injection." << key;
    EXPECT_EQ(injections[0].at("kind").asString(),
              "spurious-rollback");
    EXPECT_EQ(injections[0].at("handled_by").asString(),
              "manager-rollback");
    EXPECT_EQ(doc.at("degradation").at("level").asString(),
              "speculative");
}

namespace {

/** Shared assertions for a profile-enabled report. */
void
expectProfileCoherent(const jsonlite::Value &doc)
{
    const auto &profile = doc.at("profile");
    EXPECT_TRUE(profile.at("enabled").asBool());
    EXPECT_GT(profile.at("wall_ns").asUint(), 0u);

    // The global table lists every phase by name plus the "other"
    // residual bucket.
    const auto &phases = profile.at("phases").array;
    for (const char *name :
         {"simulate", "queue-push", "wait-for-slack", "wait-inbound",
          "barrier", "checkpoint", "rollback-replay", "drain",
          "pacer-epoch", "sample", "other"}) {
        bool found = false;
        for (const auto &p : phases)
            found |= p.at("name").asString() == name;
        EXPECT_TRUE(found) << "missing phase " << name;
    }

    // Per worker, exclusive phase time plus the residual reconstructs
    // the worker's span exactly (residual saturates at zero).
    const auto &workers = profile.at("workers").array;
    ASSERT_FALSE(workers.empty());
    for (const auto &w : workers) {
        for (const char *key :
             {"role", "tid", "span_ns", "other_ns", "truncated",
              "dropped_paths", "phases", "paths"})
            ASSERT_TRUE(w.has(key)) << "worker." << key;
        EXPECT_FALSE(w.at("role").asString().empty());
        const std::uint64_t span = w.at("span_ns").asUint();
        const std::uint64_t other = w.at("other_ns").asUint();
        std::uint64_t attributed = 0;
        for (const auto &p : w.at("phases").array)
            attributed += p.at("ns").asUint();
        if (other == 0)
            EXPECT_GE(attributed, span) << w.at("role").asString();
        else
            EXPECT_EQ(attributed + other, span)
                << w.at("role").asString();
    }

    // Something simulated, so host time landed in the simulate phase
    // and the verdict summarises a real distribution.
    std::uint64_t simulate_ns = 0;
    for (const auto &p : phases)
        if (p.at("name").asString() == "simulate")
            simulate_ns = p.at("ns").asUint();
    EXPECT_GT(simulate_ns, 0u);
    EXPECT_FALSE(profile.at("verdict").asString().empty());
    EXPECT_GT(profile.at("attributed_ns").asUint(), 0u);
}

} // namespace

TEST(RunReport, SerialProfileSectionAttributesHostTime)
{
    SimConfig config = smallConfig(SchemeKind::Adaptive, false);
    config.engine.adaptive.targetViolationRate = 0.002;
    config.engine.adaptive.epochCycles = 500;
    config.engine.checkpoint.mode = CheckpointMode::Speculative;
    config.engine.checkpoint.interval = 2000;
    config.engine.obs.profile = true;

    const auto doc = runAndParse(config, "report_profile_serial.json");
    expectSchemaComplete(doc);
    expectProfileCoherent(doc);
    EXPECT_TRUE(doc.at("config").at("obs").at("profile").asBool());
}

TEST(RunReport, ParallelProfileCoversEveryHostThread)
{
    SimConfig config = smallConfig(SchemeKind::Adaptive, true);
    config.engine.adaptive.targetViolationRate = 0.002;
    config.engine.adaptive.epochCycles = 500;
    config.engine.obs.profile = true;
    // Pin the topology: the auto policy would run inline (manager
    // only) on a single-CPU host, and this test is about covering
    // multiple host threads.
    config.engine.hostThreads = 3;

    const auto doc =
        runAndParse(config, "report_profile_parallel.json");
    expectSchemaComplete(doc);
    expectProfileCoherent(doc);
    // Parallel host: the manager plus the two pinned workers —
    // strictly more profile slots than the serial run's one.
    EXPECT_GT(doc.at("profile").at("workers").array.size(), 1u);
}

TEST(RunReport, ObserveExampleEndToEnd)
{
#ifndef SLACKSIM_OBSERVE_BIN
    GTEST_SKIP() << "observe binary path not provided";
#else
    const std::string report = test::scratchPath("observe_report.json");
    const std::string metrics = test::scratchPath("observe_metrics.csv");
    const std::string cmd = std::string(SLACKSIM_OBSERVE_BIN) +
                            " --serial --uops=20000" +
                            " --report-out=" + report +
                            " --metrics-out=" + metrics +
                            " > " + test::scratchPath("observe_stdout.txt") +
                            " 2>&1";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

    std::ifstream is(report);
    ASSERT_TRUE(is.good()) << "observe did not write " << report;
    std::stringstream ss;
    ss << is.rdbuf();
    const auto doc = jsonlite::parse(ss.str());
    expectSchemaComplete(doc);
    expectAttributionExact(doc);
    EXPECT_EQ(doc.at("config").at("obs").at("report_out").asString(),
              report);
    // The metrics sampler ran, and its self-accounting shows up.
    EXPECT_GT(doc.at("obs").at("metrics_rows").asUint(), 0u);
    std::ifstream mis(metrics);
    EXPECT_TRUE(mis.good()) << "observe did not write " << metrics;
#endif
}
