/**
 * @file
 * Quickstart: assemble a small program, run it on the segmented
 * dependence-chain IQ, and print the headline statistics.  Mirrors the
 * paper's Figure 1 walkthrough: a load-headed chain of dependent
 * instructions scheduled across queue segments.
 *
 * Usage: quickstart [key=value ...]   e.g. quickstart iq=ideal iq_size=32
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "common/config.hh"
#include "isa/assembler.hh"
#include "isa/disassembler.hh"
#include "sim/simulator.hh"

using namespace sciq;

namespace {

// A miniature pointer-chase-plus-arithmetic loop: each iteration's load
// heads a dependence chain (paper Figure 1 territory).
const char *kSource = R"(
    .base 0x1000
    .doubles 0x20000 1.5 2.5 3.5 4.5
    # r11 = data pointer, r13 = loop count, f4 = accumulator
    lui  r11, 8          # r11 = 8 << 14 = 0x20000
    addi r13, r0, 1000
    fsub f4, f4, f4
loop:
    fld  f1, 0(r11)      # chain head (variable latency)
    fmul f2, f1, f1      # chain member, +4 predicted
    fadd f3, f2, f1      # chain member
    fadd f4, f4, f3      # accumulate
    addi r13, r13, -1
    bne  r13, r0, loop
    fcvtfi r9, f4
    xor  r10, r10, r9
    halt
)";

} // namespace

int
main(int argc, char **argv)
{
    // Part 2's configuration, checked before anything runs.
    SimConfig cfg = makeSegmentedConfig(/*iq_size=*/256, /*chains=*/128,
                                        /*hmp=*/true, /*lrp=*/true,
                                        /*workload=*/"equake");
    cfg.wl.iterations = 2048;
    if (const std::string bad =
            cfg.applyCommandLine(ConfigMap::fromArgs(argc, argv));
        !bad.empty()) {
        std::cerr << "ERROR: " << bad << '\n';
        return 2;
    }

    // --- 1. A hand-written program through the text assembler --------
    Program prog = assemble(kSource, "quickstart");
    std::cout << "Assembled " << prog.size() << " instructions:\n"
              << disassemble(prog).substr(0, 512) << "  ...\n\n";

    // --- 2. The full evaluation workloads through the simulator ------
    cfg.printParameters(std::cout);
    std::cout << '\n';

    RunResult r = runSim(cfg);
    printResultHeader(std::cout);
    printResultRow(std::cout, r);

    std::cout << "\nDetail:\n"
              << "  L1D miss rate (incl. delayed hits): "
              << 100.0 * r.l1dMissRate << "%\n"
              << "  branch mispredict rate: "
              << 100.0 * r.branchMispredictRate << "%\n";
    if (cfg.core.iqKind == IqKind::Segmented) {
        std::cout << "  chains in use (avg/peak): " << r.avgChains << " / "
                  << r.peakChains << "\n"
                  << "  ready insts in segment 0 (avg): " << r.seg0ReadyAvg
                  << "\n";
    }
    std::cout << "  state validated against functional model: "
              << (r.validated ? "yes" : "NO") << "\n";
    return r.validated ? 0 : 1;
}
