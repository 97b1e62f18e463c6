/**
 * @file
 * The unified machine-readable run report: one versioned JSON
 * document (`slacksim.run_report.v5`) merging the configuration, the
 * RunResult, the violation-forensics ledger, the adaptive decision
 * log, the degradation-ladder outcome, the fault-injection record and
 * the obs layer's own overhead counters. Emitted by runSimulation()
 * whenever --report-out is set, so every engine, bench and example
 * shares one writer and one schema (documented in DESIGN.md,
 * "Forensics & run report" and "Fault tolerance"; validated by
 * tests/report_schema_test).
 *
 * v1 -> v2: added `forensics.transitions[]` (+ dropped counter), the
 * top-level `degradation` and `faults` sections and `obs.io_errors`.
 * v2 -> v3: added the top-level `profile` section (host-time phase
 * attribution, per-worker breakdowns, hardware counters, verdict)
 * emitted by the --profile layer; `enabled=false` with empty arrays
 * when profiling was off.
 * v3 -> v4 (additive): top-level `job_id` — the serve correlation id
 * ("" for standalone runs) that joins the report to the daemon's
 * server_events.jsonl, the metrics CSV schema line and the per-job
 * trace filename — plus `generator.build` (git hash, compiler, build
 * type, obs/sanitize knobs from the generated util/build_info.hh) and
 * `forensics.job_id` mirroring the id into the ledger section.
 * v4 -> v5 (additive): top-level `trace` section — the distributed
 * trace identity (trace_id, span_id, parent_span_id as 16-hex
 * strings), the emitting pid and the per-process clock anchor
 * (wall_us / steady_ns / tsc, plus tsc_ghz calibration when the
 * profiler ran) that lets the fleet merger join this run to the
 * daemon's server_events.jsonl on one wall-epoch timeline; the
 * config.obs subobject gains trace_id / parent_span_id.
 */

#ifndef SLACKSIM_OBS_RUN_REPORT_HH
#define SLACKSIM_OBS_RUN_REPORT_HH

#include <iosfwd>

namespace slacksim {

struct SimConfig;
struct RunResult;

namespace obs {

/** The schema identifier emitted in every report. */
inline constexpr const char *runReportSchema = "slacksim.run_report.v5";

/** Write the full run report for @p result under @p config. */
void writeRunReport(std::ostream &os, const SimConfig &config,
                    const RunResult &result);

} // namespace obs
} // namespace slacksim

#endif // SLACKSIM_OBS_RUN_REPORT_HH
