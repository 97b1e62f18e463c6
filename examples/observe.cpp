/**
 * @file
 * observe — the observability subsystem's showcase: run one adaptive
 * slack simulation with measurement checkpoints and write both
 * observability artifacts:
 *   --trace-out=t.json   Chrome-trace/Perfetto timeline (load it in
 *                        chrome://tracing or https://ui.perfetto.dev)
 *   --metrics-out=m.csv  per-epoch metrics time series (plot the
 *                        slack_bound column to watch the controller)
 *   --report-out=r.json  unified slacksim.run_report.v5 document
 *                        (config + results + violation forensics +
 *                        adaptive decision log + fault/degradation
 *                        record)
 *
 * Also the chaos-testing entry point (README "Chaos testing"): the
 * --fault-spec / recovery-ladder flags inject deterministic faults
 * and every injection + demotion lands in the report.
 *
 * Usage:
 *   observe --trace-out=t.json --metrics-out=m.csv
 *           --report-out=r.json [--kernel=uniform] [--uops=60000]
 *           [--serial] [--speculative] [--watchdog-ms=MS]
 *           [--fault-spec=snapshot-corrupt@ckpt:2 ...]
 */

#include <iostream>

#include "core/run.hh"
#include "fault/fault_flags.hh"
#include "obs/obs_flags.hh"
#include "util/options.hh"

using namespace slacksim;

namespace {

std::vector<OptionSpec>
flagSpecs()
{
    std::vector<OptionSpec> specs = {
        {"kernel", "NAME", "workload kernel (default uniform)"},
        {"uops", "N", "committed micro-op budget (default 60000)"},
        {"cores", "N", "simulated core count (default 8)"},
        {"serial", "", "use the serial reference engine"},
        {"speculative", "", "roll back on violations (else measure)"},
        {"interval", "CYCLES", "checkpoint interval (default 2000)"},
        {"target", "R", "adaptive target violation rate"},
        {"init", "N", "adaptive initial slack bound (default 64)"},
    };
    for (const auto &spec : obs::obsOptionSpecs())
        specs.push_back(spec);
    for (const auto &spec : fault::faultOptionSpecs())
        specs.push_back(spec);
    return specs;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    opts.enforceKnown("observe: one instrumented run that writes the "
                      "trace timeline and the metrics time series",
                      flagSpecs());

    const std::string kernel = opts.get("kernel", "uniform");
    SimConfig config = paperConfig(kernel, opts.getUint("uops", 60000));
    if (opts.has("cores")) {
        config.target.numCores =
            static_cast<std::uint32_t>(opts.getUint("cores", 8));
        config.workload.numThreads = config.target.numCores;
    }
    if (kernel == "uniform") {
        config.workload.iters = 20000;
        config.workload.footprintBytes = 128 * 1024;
    }
    config.engine.parallelHost = !opts.has("serial");
    config.engine.scheme = SchemeKind::Adaptive;
    config.engine.adaptive.targetViolationRate =
        opts.getDouble("target", 1e-3);
    config.engine.adaptive.violationBand = 0.05;
    config.engine.adaptive.initialBound = opts.getUint("init", 64);
    config.engine.checkpoint.mode = opts.has("speculative")
                                        ? CheckpointMode::Speculative
                                        : CheckpointMode::Measure;
    config.engine.checkpoint.interval = opts.getUint("interval", 2000);
    obs::applyObsOptions(opts, config.engine.obs);
    fault::applyFaultOptions(opts, config.engine);

    if (!config.engine.obs.enabled()) {
        std::cout << "note: none of --trace-out / --metrics-out / "
                     "--report-out given; running without artifact "
                     "output.\n";
    }

    const RunResult r = runSimulation(config);
    r.printSummary(std::cout);

    // Forensics digest: where did the violations actually land?
    const obs::ViolationLedger &ledger = r.forensics.ledger;
    if (ledger.total() > 0) {
        std::cout << "\nviolation forensics (" << ledger.busTotal()
                  << " bus, " << ledger.mapTotal() << " map):\n";
        std::cout << "  top offender address buckets (64B-line "
                     "groups of 64):\n";
        for (const auto &o : ledger.topOffenders(5)) {
            std::cout << "    bucket 0x" << std::hex << o.bucket
                      << std::dec << ": " << o.bus << " bus + "
                      << o.map << " map\n";
        }
        std::cout << "  adaptive decisions recorded: "
                  << r.forensics.decisions.decisions().size() << "\n";
    }

    if (!config.engine.obs.traceOut.empty()) {
        std::cout << "\ntrace timeline : "
                  << config.engine.obs.traceOut
                  << "  (open in chrome://tracing or ui.perfetto.dev)\n";
    }
    if (!config.engine.obs.metricsOut.empty()) {
        std::cout << "metrics series : " << config.engine.obs.metricsOut
                  << "  (CSV; plot global_cycle vs slack_bound)\n";
    }
    if (!config.engine.obs.reportOut.empty()) {
        std::cout << "run report     : " << config.engine.obs.reportOut
                  << "  (JSON; jq .forensics.violations for the "
                     "attribution tables)\n";
    }
    return 0;
}
