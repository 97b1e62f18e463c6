/**
 * @file
 * Run facade implementation.
 */

#include "core/run.hh"

#include <memory>

#include "core/parallel_engine.hh"
#include "core/serial_engine.hh"
#include "core/sim_system.hh"
#include "fault/fault_plan.hh"
#include "obs/run_report.hh"
#include "obs/span.hh"
#include "util/io.hh"
#include "util/logging.hh"
#include "util/run_token.hh"

namespace slacksim {

namespace {

/** Emit the unified run report when --report-out is configured.
 *  Centralized here so every engine, bench and example that goes
 *  through runSimulation() gets the flag for free. */
void
maybeWriteReport(const SimConfig &config, const RunResult &result)
{
    const std::string &path = config.engine.obs.reportOut;
    if (path.empty())
        return;
    CheckedOfstream os(path, "run report");
    if (os.ok())
        obs::writeRunReport(os.stream(), config, result);
    // The report may be the only evidence an isolated child leaves
    // behind; fsync so it survives the process (and the power).
    os.sync();
    if (os.finish()) {
        SLACKSIM_INFORM("run report (", obs::runReportSchema, ") -> ",
                        path);
    }
}

} // namespace

RunResult
runSimulation(const SimConfig &run_config)
{
    // A submitter (the job server) propagates its trace id through
    // EngineConfig::obs; a standalone run with observability on mints
    // its own so every artifact still carries a joinable identity.
    SimConfig config = run_config;
    if (config.engine.obs.enabled() && config.engine.obs.traceId.empty())
        config.engine.obs.traceId = obs::mintTraceId();

    // Mint this run's identity and bind it to the calling (manager)
    // thread: token-aware registries (the obs recorder) use it to
    // tell concurrent runs apart, and the engines replicate it onto
    // every worker thread via the SimSystem run binding below.
    const std::uint64_t token = newRunToken();
    ScopedRunToken token_scope(token);

    // Resolve and install the fault plan for the duration of this run
    // (flag or environment; nullptr in the common fault-free case).
    // The install is thread-local, so concurrent runs in one process
    // each see only their own plan.
    std::uint64_t fault_seed = 0;
    std::vector<fault::FaultSpec> specs = fault::resolveFaultSpecs(
        config.engine.faultSpecs, config.engine.faultSeed, &fault_seed);
    std::unique_ptr<fault::FaultPlan> plan;
    if (!specs.empty()) {
        plan = std::make_unique<fault::FaultPlan>(std::move(specs),
                                                  fault_seed);
        plan->install();
    }

    SimSystem sys(config);
    sys.setRunBinding(token, plan.get());
    RunResult result;
    if (config.engine.parallelHost) {
        ParallelEngine engine(sys);
        result = engine.run();
    } else {
        SerialEngine engine(sys);
        result = engine.run();
    }

    if (plan) {
        plan->uninstall();
        result.faultInjections = plan->records();
        result.faultSpecCount = plan->specCount();
        result.faultSeed = plan->seed();
    }
    maybeWriteReport(config, result);
    return result;
}

SimConfig
paperConfig(const std::string &kernel, std::uint64_t max_uops)
{
    SimConfig config;
    config.workload.kernel = kernel;
    config.workload.numThreads = config.target.numCores;
    config.engine.maxCommittedUops = max_uops;
    return config;
}

} // namespace slacksim
