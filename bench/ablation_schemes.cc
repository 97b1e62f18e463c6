/**
 * @file
 * Scheme ablation (paper Sections 1-2 and related-work comparison):
 * wall-clock speed and violation behavior of every synchronization
 * scheme — cycle-by-cycle, quantum (several quanta), bounded slack
 * (several bounds), unbounded, and adaptive — on the same workload
 * window. This is the design-space sweep DESIGN.md calls out: quantum
 * with q=1 should behave like CC (the paper's "critical latency is
 * one cycle" argument), while larger quanta trade accuracy for speed
 * exactly like slack does.
 *
 * Flags: --kernel=NAME --uops=N --serial
 */

#include <iostream>

#include "common.hh"
#include "stats/table.hh"
#include "table_io.hh"

using namespace slacksim;
using namespace slacksim::bench;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    checkFlags(opts, "ablation_schemes: every synchronization scheme on one window");
    const std::uint64_t uops = uopBudget(opts, 50000);
    banner("Ablation: all synchronization schemes on one window",
           opts, uops);

    for (const auto &kernel : kernelList(opts)) {
        Table table("Schemes [" + kernel + "]");
        table.setHeader({"scheme", "sim time (s)", "speedup vs CC",
                         "bus viol", "map viol", "max slack seen"});

        double t_cc = 0.0;
        auto run = [&](const std::string &label, SimConfig config) {
            const RunResult r = runSimulation(config);
            if (label == "CC")
                t_cc = r.host.wallSeconds;
            table.cell(label)
                .cell(r.host.wallSeconds, 3)
                .cell(t_cc > 0 ? t_cc / r.host.wallSeconds : 1.0, 2)
                .cell(r.violations.busViolations)
                .cell(r.violations.mapViolations)
                .cell(r.host.maxObservedSlack)
                .endRow();
        };

        SimConfig base = paperSetup(kernel, uops);
        applyCommonFlags(opts, base);

        {
            SimConfig c = base;
            c.engine.scheme = SchemeKind::CycleByCycle;
            run("CC", c);
        }
        for (const Tick q : {1u, 8u, 64u, 512u}) {
            SimConfig c = base;
            c.engine.scheme = SchemeKind::Quantum;
            c.engine.quantum = q;
            run("quantum " + std::to_string(q), c);
        }
        for (const Tick b : {1u, 8u, 64u, 512u}) {
            SimConfig c = base;
            c.engine.scheme = SchemeKind::Bounded;
            c.engine.slackBound = b;
            run("bounded " + std::to_string(b), c);
        }
        {
            SimConfig c = base;
            c.engine.scheme = SchemeKind::Unbounded;
            run("unbounded", c);
        }
        {
            SimConfig c = base;
            c.engine.scheme = SchemeKind::Adaptive;
            c.engine.adaptive.targetViolationRate = 1e-4;
            run("adaptive 0.01%", c);
        }
        for (const Tick b : {4u, 64u}) {
            SimConfig c = base;
            c.engine.scheme = SchemeKind::LaxP2P;
            c.engine.slackBound = b;
            run("lax-p2p " + std::to_string(b), c);
        }

        table.print(std::cout);
        std::cout << "\n";
        emitCsv(opts, {&table});
    }
    return 0;
}
