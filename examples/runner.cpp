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
 *   runner help=1        every key, its value form and minimum
 *
 * Runs start from segmented-512 with 128 chains, HMP and LRP on swim.
 * An unknown key or workload, a token that is not key=value, a bad
 * value and an IQ geometry that cannot be built (iq_size=100 is not a
 * whole number of 32-entry segments) are rejected with exit 2 ("did
 * you mean" for a near-miss key).
 */

#include <iostream>
#include <string>

#include "common/config.hh"
#include "sim/simulator.hh"

using namespace sciq;

int
main(int argc, char **argv)
{
    ConfigMap args = ConfigMap::fromArgs(argc, argv);
    SimConfig cfg = makeSegmentedConfig(512, 128, true, true, "swim");
    if (const std::string bad =
            cfg.applyCommandLine(args, {"stats", "help"});
        !bad.empty()) {
        std::cerr << "ERROR: " << bad << '\n';
        return 2;
    }
    if (args.has("help")) {
        std::cout << "runner keys:\n"
                     "  stats=0|1    dump the full statistics tree\n"
                     "simulator keys (chains=-1 is unlimited; a host "
                     "setting changes\nhow a result is made, never "
                     "what it is):\n";
        SimConfig::printKeys(std::cout);
        return 0;
    }

    cfg.printParameters(std::cout);
    std::cout << '\n';

    Simulator sim(cfg);
    RunResult r = sim.run();
    printResultHeader(std::cout);
    printResultRow(std::cout, r);

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
