/**
 * @file
 * General-purpose simulation driver: run any workload on any queue
 * configuration and dump the full hierarchical statistics tree -
 * the "sim-outorder" style front door to the library.
 *
 * Usage examples:
 *   runner workload=swim iq=segmented iq_size=512 chains=128 hmp=1 lrp=1
 *   runner workload=gcc iq=prescheduled iq_size=320 stats=1
 *   runner workload=equake ff=5000 iters=2000 resize=1
 *   runner workload=swim ff=5000 ckpt_dir=ckpt-cache
 *
 * Unknown keys are rejected (exit 2) with a "did you mean" suggestion.
 */

#include <iostream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "sim/simulator.hh"

using namespace sciq;

int
main(int argc, char **argv)
{
    ConfigMap args = ConfigMap::fromArgs(argc, argv);
    std::vector<std::string> known = SimConfig::keys();
    known.insert(known.end(), {"stats", "help"});
    if (const std::string bad = args.unknownKeyMessage(known);
        !bad.empty()) {
        std::cerr << "ERROR: " << bad << '\n';
        return 2;
    }
    if (args.has("help")) {
        std::cout <<
            "keys: workload=<name> iq=ideal|segmented|prescheduled|fifo\n"
            "      iq_size=N seg_size=N chains=N|-1 hmp=0/1 lrp=0/1\n"
            "      pushdown=0/1 bypass=0/1 resize=0/1 iters=N ff=N\n"
            "      seed=N scale=X max_cycles=N validate=0/1 stats=0/1\n"
            "      ckpt_dir=<dir>  (warm-up checkpoint cache: restore the\n"
            "      ff= prefix instead of re-executing it; a damaged\n"
            "      entry is re-warmed and replaced)\n"
            "      bb_cache=0/1 (default 1: basic-block cache for the\n"
            "      functional paths; 0 = step()-based reference)\n"
            "count-valued keys (ff, iters, max_cycles, ...) accept\n"
            "decimal k/m/g suffixes, e.g. ff=300m\n";
        return 0;
    }

    SimConfig cfg = makeSegmentedConfig(512, 128, true, true, "swim");
    cfg.apply(args);

    cfg.printParameters(std::cout);
    std::cout << '\n';

    Simulator sim(cfg);
    RunResult r = sim.run();
    printResultHeader(std::cout);
    printResultRow(std::cout, r);
    if (cfg.fastForward > 0) {
        std::cout << "checkpoint: " << (r.ckptRestored ? "restored" : "cold")
                  << '\n';
    }

    std::cout << "\nbranch mispredict/cond-branch: "
              << 100.0 * r.branchMispredictRate << "%"
              << "   L1D miss (incl. delayed): "
              << 100.0 * r.l1dMissRate << "%\n";

    if (args.getBool("stats", false)) {
        std::cout << "\n==== full statistics ====\n";
        sim.core().statGroup().dump(std::cout);
        sim.warmStatGroup().dump(std::cout);
    }
    return r.haltedCleanly && (!cfg.validate || r.validated) ? 0 : 1;
}
