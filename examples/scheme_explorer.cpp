/**
 * @file
 * scheme_explorer — a small CLI around the whole library: run any
 * workload kernel under any synchronization scheme with full control
 * over the knobs, and print the detailed run summary. Handy for
 * reproducing a single cell of any table in the paper.
 *
 * Usage examples:
 *   scheme_explorer --kernel=barnes --scheme=cc --uops=50000
 *   scheme_explorer --kernel=lu --scheme=bounded --slack=25
 *   scheme_explorer --kernel=water --scheme=adaptive --target=0.0001 \
 *                   --band=0.05 --checkpoint=measure --interval=10000
 *   scheme_explorer --kernel=uniform --scheme=adaptive \
 *                   --checkpoint=speculative --interval=5000 --serial
 *   scheme_explorer --list
 */

#include <iostream>

#include "core/run.hh"
#include "obs/obs_flags.hh"
#include "util/options.hh"
#include "workload/kernels.hh"

using namespace slacksim;

namespace {

std::vector<OptionSpec>
flagSpecs()
{
    std::vector<OptionSpec> specs = {
        {"list", "", "list workload kernels and exit"},
        {"kernel", "NAME", "workload (default fft)"},
        {"scheme", "S", "cc|quantum|bounded|unbounded|adaptive|lax-p2p"},
        {"slack", "N", "bounded-scheme slack bound (default 10)"},
        {"quantum", "N", "quantum-scheme barrier period (default 8)"},
        {"target", "R", "adaptive target violation rate (default 1e-4)"},
        {"band", "B", "adaptive violation band (default 0.05)"},
        {"epoch", "N", "adaptive epoch cycles (default 1000)"},
        {"init", "N", "adaptive initial bound (default 8)"},
        {"checkpoint", "M", "off|measure|speculative"},
        {"checkpoint-tech", "T", "memory|fork (fork: serial only)"},
        {"p2p-period", "N", "lax-p2p reshuffle period (default 1000)"},
        {"interval", "N", "checkpoint interval cycles (default 50000)"},
        {"no-bus-rollback", "", "roll back on map violations only"},
        {"uops", "N", "stop after N committed uops (default 100000)"},
        {"cores", "N", "target cores (= workload threads, default 8)"},
        {"serial", "", "single-threaded host engine"},
        {"protocol", "P", "mesi|msi coherence protocol"},
        {"seed", "N", "workload generation seed (default 42)"},
        {"grain", "N", "workload compute grain (default 1)"},
        {"iters", "N", "workload iteration override"},
        {"fft-points", "N", "fft input size override"},
        {"bodies", "N", "barnes body count override"},
        {"matrix-n", "N", "lu matrix size override"},
        {"molecules", "N", "water molecule count override"},
    };
    for (const auto &spec : obs::obsOptionSpecs())
        specs.push_back(spec);
    return specs;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    opts.enforceKnown("scheme_explorer: run any kernel under any "
                      "scheme with full knob control",
                      flagSpecs());

    if (opts.has("list")) {
        std::cout << "workload kernels:\n";
        for (const auto &name : workloadNames())
            std::cout << "  " << name << "\n";
        return 0;
    }

    SimConfig config;
    config.workload.kernel = opts.get("kernel", "fft");
    config.target.numCores =
        static_cast<std::uint32_t>(opts.getUint("cores", 8));
    config.workload.numThreads = config.target.numCores;
    config.workload.seed = opts.getUint("seed", 42);
    config.workload.computeGrain =
        static_cast<std::uint32_t>(opts.getUint("grain", 1));
    config.workload.iters = opts.getUint("iters", 0);
    config.workload.fftPoints = opts.getUint("fft-points", 0);
    config.workload.bodies = opts.getUint("bodies", 0);
    config.workload.matrixN = opts.getUint("matrix-n", 0);
    config.workload.molecules = opts.getUint("molecules", 0);

    config.engine.scheme = parseScheme(opts.get("scheme", "bounded"));
    config.engine.slackBound = opts.getUint("slack", 10);
    config.engine.quantum = opts.getUint("quantum", 8);
    config.engine.adaptive.targetViolationRate =
        opts.getDouble("target", 1e-4);
    config.engine.adaptive.violationBand = opts.getDouble("band", 0.05);
    config.engine.adaptive.epochCycles = opts.getUint("epoch", 1000);
    config.engine.adaptive.initialBound = opts.getUint("init", 8);
    config.engine.maxCommittedUops = opts.getUint("uops", 100000);
    config.engine.parallelHost = !opts.has("serial");

    const std::string ckpt = opts.get("checkpoint", "off");
    if (ckpt == "measure")
        config.engine.checkpoint.mode = CheckpointMode::Measure;
    else if (ckpt == "speculative")
        config.engine.checkpoint.mode = CheckpointMode::Speculative;
    else if (ckpt != "off")
        SLACKSIM_FATAL("--checkpoint expects off|measure|speculative");
    config.engine.checkpoint.interval = opts.getUint("interval", 50000);
    config.engine.checkpoint.rollbackOnBus =
        !opts.has("no-bus-rollback");
    const std::string tech = opts.get("checkpoint-tech", "memory");
    if (tech == "fork")
        config.engine.checkpoint.tech = CheckpointTech::ForkProcess;
    else if (tech != "memory")
        SLACKSIM_FATAL("--checkpoint-tech expects memory|fork");
    config.engine.p2pShufflePeriod = opts.getUint("p2p-period", 1000);
    const std::string protocol = opts.get("protocol", "mesi");
    if (protocol == "msi")
        config.target.protocol = CoherenceProtocol::MSI;
    else if (protocol != "mesi")
        SLACKSIM_FATAL("--protocol expects mesi|msi");
    obs::applyObsOptions(opts, config.engine.obs);

    const RunResult result = runSimulation(config);
    result.printSummary(std::cout);
    return 0;
}
