/**
 * @file
 * Observability flag plumbing implementation.
 */

#include "obs/obs_flags.hh"

#include <string>

#include "obs/run_report.hh"

namespace slacksim::obs {

const std::vector<OptionSpec> &
obsOptionSpecs()
{
    static const std::string report_help =
        std::string("write the unified ") + runReportSchema + " JSON";
    static const std::vector<OptionSpec> specs = {
        {"trace-out", "FILE",
         "write a Chrome-trace/Perfetto JSON of the run"},
        {"metrics-out", "FILE",
         "write the epoch metrics time series as CSV"},
        {"obs-buffer-kb", "KB",
         "per-thread trace ring size in KiB (default 1024)"},
        {"obs-epoch", "CYCLES",
         "metrics sampling period (default: adaptive epoch)"},
        {"report-out", "FILE", report_help.c_str()},
        {"watchdog-ms", "MS",
         "stall watchdog threshold in wall ms (0 = off)"},
        {"profile", "",
         "attribute host time to phases; adds the run-report "
         "profile section"},
        {"profile-out", "FILE",
         "write a folded-stack flamegraph file (implies --profile)"},
        {"job-id", "ID",
         "correlation id stamped into every artifact (the job "
         "server sets job-<id>)"},
    };
    return specs;
}

void
applyObsOptions(const Options &opts, ObsConfig &config)
{
    config.traceOut = opts.get("trace-out", config.traceOut);
    config.metricsOut = opts.get("metrics-out", config.metricsOut);
    config.bufferKb = static_cast<std::uint32_t>(
        opts.getUint("obs-buffer-kb", config.bufferKb));
    config.metricsEpoch = opts.getUint("obs-epoch", config.metricsEpoch);
    config.reportOut = opts.get("report-out", config.reportOut);
    config.watchdogMs = opts.getUint("watchdog-ms", config.watchdogMs);
    config.profile = opts.getBool("profile", config.profile);
    config.profileOut = opts.get("profile-out", config.profileOut);
    if (!config.profileOut.empty())
        config.profile = true;
    config.jobId = opts.get("job-id", config.jobId);
}

} // namespace slacksim::obs
