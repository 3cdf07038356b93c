/**
 * @file
 * Pipeline visualiser: run a small program on the segmented IQ with
 * tracing attached and print a per-instruction timeline, showing chain
 * scheduling in action - watch the dependants of a missing load hold
 * position and then self-time toward issue after the data returns.
 *
 * Usage: pipeview [iq=segmented|ideal|prescheduled|fifo] [rows=N]
 *                 [squashed=1] [any SimConfig key=value]
 */

#include <iostream>
#include <string>
#include <utility>

#include "common/config.hh"
#include "isa/assembler.hh"
#include "sim/pipe_trace.hh"
#include "sim/sim_config.hh"

using namespace sciq;

namespace {

// Two iterations of a load-headed dependence chain plus independent
// work, small enough to read as a timeline.
const char *kSource = R"(
    .base 0x1000
    .doubles 0x20000 1.5 2.5 3.5 4.5 5.5 6.5 7.5 8.5
    lui  r11, 8            # 0x20000
    addi r13, r0, 3        # iterations
loop:
    fld  f1, 0(r11)        # chain head (first touch misses)
    fmul f2, f1, f1        # chain member
    fadd f3, f2, f1        # chain member
    fadd f4, f4, f3        # accumulate
    addi r12, r12, 1       # independent work
    addi r14, r12, 5
    addi r11, r11, 8
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
    ConfigMap args = ConfigMap::fromArgs(argc, argv);
    SimConfig cfg;
    cfg.core.iq.numEntries = 128;
    cfg.core.iq.segmentSize = 32;
    cfg.core.iq.maxChains = 64;
    if (const std::string bad =
            cfg.applyCommandLine(args, {"rows", "squashed"});
        !bad.empty()) {
        std::cerr << "ERROR: " << bad << '\n';
        return 2;
    }
    cfg.core.finalize();

    const auto [squashed, rows] = readArgsOrExit([&] {
        return std::pair{args.getBool("squashed", false),
                         static_cast<std::size_t>(args.getCount("rows", 48))};
    });

    Program prog = assemble(kSource, "pipeview-demo");
    OooCore core(prog, cfg.core);
    PipeTrace trace;
    trace.traceSquashed = squashed;
    core.setObserver(&trace);

    core.run(~0ULL, 100000);
    std::cout << "IQ design: " << iqKindName(cfg.core.iqKind)
              << ", halted=" << core.halted() << ", cycles "
              << core.cycles() << "\n\n";
    trace.render(std::cout, 0, rows);

    std::cout << "\nNote the gap between 'd' and 'i' on the fmul/fadd "
                 "chain after each fld: the chain\nholds its members "
                 "back until the load's latency resolves - compare "
                 "iq=ideal.\n";
    return core.halted() ? 0 : 1;
}
