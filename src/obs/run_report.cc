/**
 * @file
 * Run-report writer (schema slacksim.run_report.v5).
 */

#include "obs/run_report.hh"

#include <thread>

#include "core/config.hh"
#include "core/run_result.hh"
#include "fault/fault_plan.hh"
#include "obs/span.hh"
#include "util/build_info.hh"
#include "util/json.hh"

namespace slacksim {
namespace obs {

namespace {

const char *
checkpointModeName(CheckpointMode mode)
{
    switch (mode) {
      case CheckpointMode::Off:
        return "off";
      case CheckpointMode::Measure:
        return "measure";
      case CheckpointMode::Speculative:
        return "speculative";
    }
    return "unknown";
}

const char *
checkpointTechName(CheckpointTech tech)
{
    switch (tech) {
      case CheckpointTech::Memory:
        return "memory";
      case CheckpointTech::ForkProcess:
        return "fork";
    }
    return "unknown";
}

void
writeHistogramSummary(JsonWriter &w, const char *key,
                      const Log2Histogram &h)
{
    w.beginObject(key);
    w.field("count", h.count());
    w.field("mean", h.mean());
    w.field("p50", h.percentile(50));
    w.field("p95", h.percentile(95));
    w.field("max", h.max());
    w.endObject();
}

void
writeConfigSection(JsonWriter &w, const SimConfig &config)
{
    const EngineConfig &e = config.engine;
    w.beginObject("config");
    w.field("workload", config.workload.kernel);
    w.field("cores", config.target.numCores);
    w.field("scheme", schemeName(e.scheme));
    w.field("parallel_host", e.parallelHost);
    w.field("slack_bound", e.slackBound);
    w.field("quantum", e.quantum);
    w.beginObject("adaptive");
    w.field("target_rate", e.adaptive.targetViolationRate);
    w.field("band", e.adaptive.violationBand);
    w.field("epoch_cycles", e.adaptive.epochCycles);
    w.field("initial_bound", e.adaptive.initialBound);
    w.field("min_bound", e.adaptive.minBound);
    w.field("max_bound", e.adaptive.maxBound);
    w.field("windowed_rate", e.adaptive.windowedRate);
    w.endObject();
    w.beginObject("checkpoint");
    w.field("mode", checkpointModeName(e.checkpoint.mode));
    w.field("tech", checkpointTechName(e.checkpoint.tech));
    w.field("interval", e.checkpoint.interval);
    w.field("child_timeout_ms", e.checkpoint.childTimeoutMs);
    w.endObject();
    w.beginObject("recovery");
    w.field("storm_threshold", e.recovery.stormThreshold);
    w.field("storm_window", e.recovery.stormWindow);
    w.field("pinned_epoch_limit", e.recovery.pinnedEpochLimit);
    w.field("repromote_after", e.recovery.repromoteAfter);
    w.endObject();
    w.beginObject("obs");
    w.field("trace_out", e.obs.traceOut);
    w.field("metrics_out", e.obs.metricsOut);
    w.field("report_out", e.obs.reportOut);
    w.field("watchdog_ms", e.obs.watchdogMs);
    w.field("profile", e.obs.profile);
    w.field("profile_out", e.obs.profileOut);
    w.field("job_id", e.obs.jobId);
    w.field("trace_id", e.obs.traceId);
    w.field("parent_span_id", spanIdHex(e.obs.parentSpanId));
    w.endObject();
    w.endObject();
}

void
writeResultSection(JsonWriter &w, const RunResult &r)
{
    w.beginObject("result");
    w.field("exec_cycles", r.execCycles);
    w.field("global_cycles", r.globalCycles);
    w.field("committed_uops", r.committedUops);
    w.field("ipc", r.ipc());
    w.field("cpi", r.cpi());
    w.field("wall_seconds", r.host.wallSeconds);
    w.beginObject("violations");
    w.field("bus", r.violations.busViolations);
    w.field("map", r.violations.mapViolations);
    w.field("bus_rate", r.busViolationRate());
    w.field("map_rate", r.mapViolationRate());
    w.endObject();
    w.beginObject("host");
    w.field("checkpoints", r.host.checkpointsTaken);
    w.field("checkpoint_bytes", r.host.checkpointBytes);
    w.field("checkpoint_seconds", r.host.checkpointSeconds);
    // Seal/copy work a background thread absorbed while the cores
    // kept simulating — overlapped host time, deliberately *not* part
    // of the critical-path checkpoint_seconds above.
    w.field("checkpoint_async_seconds", r.host.checkpointAsyncSeconds);
    w.field("rollbacks", r.host.rollbacks);
    w.field("wasted_cycles", r.host.wastedCycles);
    w.field("replay_cycles", r.host.replayCycles);
    w.field("slack_adjustments", r.host.slackAdjustments);
    w.field("manager_wakeups", r.host.managerWakeups);
    w.field("manager_rounds", r.host.managerRounds);
    w.field("core_evaluations", r.host.coreEvaluations);
    w.field("inert_reentries", r.host.inertReentries);
    w.field("max_observed_slack", r.host.maxObservedSlack);
    w.field("host_threads_used",
            static_cast<std::uint64_t>(r.host.hostThreadsUsed));
    w.endObject();
    w.field("final_slack_bound", r.finalSlackBound);
    w.field("intervals",
            static_cast<std::uint64_t>(r.intervals.size()));
    w.endObject();
}

void
writeForensicsSection(JsonWriter &w, const ForensicsData &f,
                      const std::string &jobId)
{
    w.beginObject("forensics");
    // The ledger/decision-log header carries the correlation id so an
    // extracted forensics block can still be joined to the server
    // event log on its own.
    w.field("job_id", jobId);

    const ViolationLedger &ledger = f.ledger;
    w.beginObject("violations");
    w.field("bus_total", ledger.busTotal());
    w.field("map_total", ledger.mapTotal());
    w.beginObject("slack_histogram");
    writeHistogramSummary(w, "bus", ledger.busSlack());
    writeHistogramSummary(w, "map", ledger.mapSlack());
    w.endObject();
    w.beginArray("pairs");
    for (const auto &p : ledger.nonzeroPairs()) {
        w.beginObject();
        w.field("requester", p.requester);
        w.field("prior", p.prior == invalidCore
                             ? std::int64_t(-1)
                             : static_cast<std::int64_t>(p.prior));
        w.field("bus", p.bus);
        w.field("map", p.map);
        w.endObject();
    }
    w.endArray();
    w.beginArray("top_offenders");
    for (const auto &o : ledger.topOffenders(10)) {
        w.beginObject();
        w.field("bucket", o.bucket);
        w.field("bus", o.bus);
        w.field("map", o.map);
        w.endObject();
    }
    w.endArray();
    w.field("untracked_buckets", ledger.untrackedBuckets());
    w.endObject();

    const AdaptiveDecisionLog &log = f.decisions;
    w.beginArray("decisions");
    for (const auto &d : log.decisions()) {
        w.beginObject();
        w.field("cycle", d.cycle);
        w.field("rate", d.rate);
        w.field("verdict", bandVerdictName(d.verdict));
        w.field("old_bound", d.oldBound);
        w.field("new_bound", d.newBound);
        w.endObject();
    }
    w.endArray();
    w.field("decisions_dropped", log.decisionsDropped());
    w.beginArray("episodes");
    for (const auto &e : log.episodes()) {
        w.beginObject();
        w.field("kind", episodeKindName(e.kind));
        w.field("cycle", e.cycle);
        w.field("detail", e.detail);
        w.field("host_ns", e.hostNs);
        w.endObject();
    }
    w.endArray();
    w.field("episodes_dropped", log.episodesDropped());
    w.beginArray("transitions");
    for (const auto &t : log.transitions()) {
        w.beginObject();
        w.field("cycle", t.cycle);
        w.field("from", t.from);
        w.field("to", t.to);
        w.field("reason", t.reason);
        w.endObject();
    }
    w.endArray();
    w.field("transitions_dropped", log.transitionsDropped());

    w.endObject();
}

void
writeDegradationSection(JsonWriter &w, const SimConfig &config,
                        const RunResult &r)
{
    w.beginObject("degradation");
    w.field("level", r.degradationLevel);
    w.field("demotions", r.demotions);
    w.field("repromotions", r.repromotions);
    w.field("storm_threshold",
            config.engine.recovery.stormThreshold);
    w.field("repromote_after", config.engine.recovery.repromoteAfter);
    w.endObject();
}

void
writePhaseTotals(JsonWriter &w, const char *key,
                 const std::vector<PhaseTotal> &totals)
{
    w.beginArray(key);
    for (const auto &t : totals) {
        w.beginObject();
        w.field("name", t.name);
        w.field("ns", t.ns);
        w.field("count", t.count);
        w.endObject();
    }
    w.endArray();
}

void
writeProfileSection(JsonWriter &w, const ProfileReport &p)
{
    w.beginObject("profile");
    w.field("enabled", p.enabled);
    w.field("wall_ns", p.wallNs);
    w.field("attributed_ns", p.attributedNs());
    w.field("tsc_ghz", p.tscGhz);
    writePhaseTotals(w, "phases", p.phaseTotals);
    w.beginArray("workers");
    for (const auto &worker : p.workers) {
        w.beginObject();
        w.field("role", worker.role);
        w.field("tid", worker.tid);
        w.field("span_ns", worker.spanNs);
        w.field("other_ns", worker.otherNs);
        w.field("truncated", worker.truncated);
        w.field("dropped_paths", worker.droppedPaths);
        writePhaseTotals(w, "phases", worker.phases);
        writePhaseTotals(w, "paths", worker.paths);
        w.endObject();
    }
    w.endArray();
    w.beginObject("hw");
    w.field("available", p.hw.available);
    w.field("reason", p.hw.reason);
    w.field("cycles", p.hw.cycles);
    w.field("instructions", p.hw.instructions);
    w.field("cache_misses", p.hw.cacheMisses);
    w.endObject();
    w.field("verdict", p.verdict);
    w.endObject();
}

void
writeFaultsSection(JsonWriter &w, const RunResult &r)
{
    w.beginObject("faults");
    w.field("spec_count", r.faultSpecCount);
    w.field("seed", r.faultSeed);
    w.beginArray("injections");
    for (const auto &inj : r.faultInjections) {
        w.beginObject();
        w.field("kind", fault::faultKindName(inj.kind));
        w.field("trigger", inj.trigger);
        w.field("cycle", inj.cycle);
        w.field("detail", inj.detail);
        w.field("handled_by", inj.handledBy);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

} // namespace

void
writeRunReport(std::ostream &os, const SimConfig &config,
               const RunResult &result)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", runReportSchema);
    // Additive v3 field: "ok" for a run that reached its stop
    // condition, "cancelled" for a cooperative cancel (timeout,
    // client cancel, daemon drain) — every aggregate then covers only
    // the work done up to the cancel point.
    w.field("status", result.cancelled ? "cancelled" : "ok");
    // Additive v4 field: the serve correlation id ("" standalone).
    w.field("job_id", config.engine.obs.jobId);
    w.beginObject("generator");
    w.field("name", "slacksim");
    w.field("host_threads",
            static_cast<std::uint64_t>(
                std::thread::hardware_concurrency()));
    const BuildInfo &build = buildInfo();
    w.beginObject("build");
    w.field("git", build.gitHash);
    w.field("dirty", build.gitDirty[0] != '\0');
    w.field("compiler", build.compiler);
    w.field("build_type", build.buildType);
    w.field("obs", build.obs);
    w.field("sanitize", build.sanitize);
    w.endObject();
    w.endObject();
    writeConfigSection(w, config);
    writeResultSection(w, result);
    writeForensicsSection(w, result.forensics, config.engine.obs.jobId);
    writeDegradationSection(w, config, result);
    writeFaultsSection(w, result);
    writeProfileSection(w, result.forensics.profile);
    w.beginObject("obs");
    w.field("trace_records", result.forensics.obs.traceRecords);
    w.field("trace_dropped", result.forensics.obs.traceDropped);
    w.field("trace_bytes", result.forensics.obs.traceBytes);
    w.field("metrics_rows", result.forensics.obs.metricsRows);
    w.field("metrics_bytes", result.forensics.obs.metricsBytes);
    w.field("sampler_host_ns", result.forensics.obs.samplerHostNs);
    w.field("io_errors", result.forensics.obs.ioErrors);
    w.endObject();
    w.beginObject("watchdog");
    w.field("enabled", result.forensics.watchdogEnabled);
    w.field("stall_ms", result.forensics.stallMs);
    w.field("stall_dumps", result.forensics.stallDumps);
    w.endObject();
    // Additive v5 section: distributed-trace identity + clock anchor.
    const TraceSpanInfo &trace = result.forensics.trace;
    w.beginObject("trace");
    w.field("active", trace.active);
    w.field("trace_id", trace.traceId);
    w.field("span_id", spanIdHex(trace.spanId));
    w.field("parent_span_id", spanIdHex(trace.parentSpanId));
    w.field("pid", static_cast<std::uint64_t>(trace.anchor.pid));
    w.beginObject("clock_anchor");
    w.field("wall_us", trace.anchor.wallUs);
    w.field("steady_ns", trace.anchor.steadyNs);
    w.field("tsc", trace.anchor.tsc);
    w.field("tsc_ghz", result.forensics.profile.tscGhz);
    w.endObject();
    w.endObject();
    w.endObject();
    w.finish();
}

} // namespace obs
} // namespace slacksim
