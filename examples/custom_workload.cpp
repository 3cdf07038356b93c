/**
 * @file
 * Shows how to bring your own workload to the simulator: write SRV
 * assembly (or use the AsmBuilder API), validate it on the functional
 * core, then measure it across instruction-queue designs.
 *
 * The example program is a classic latency-tolerance litmus test: a
 * linked-list pointer chase (serial misses, window can't help) fused
 * with an independent streaming sum (window helps a lot).  The
 * segmented IQ must keep the stream flowing around the stalled chase
 * chain - precisely the scheduling flexibility of paper section 3.
 *
 * Usage: custom_workload [steps=N]   (pointer-chase steps, default 4000)
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "common/config.hh"
#include "common/random.hh"
#include "isa/asm_builder.hh"
#include "isa/disassembler.hh"
#include "isa/functional_core.hh"
#include "sim/simulator.hh"
#include "workload/kernel_util.hh"

using namespace sciq;

namespace {

Program
buildChaseAndStream(unsigned nodes, unsigned steps)
{
    AsmBuilder b;

    // A shuffled ring of 16-byte nodes for the pointer chase.
    const Addr ring = 0x100000;
    Random rng(7);
    std::vector<std::uint64_t> order(nodes);
    for (unsigned i = 0; i < nodes; ++i)
        order[i] = i;
    for (unsigned i = nodes - 1; i > 0; --i)
        std::swap(order[i], order[rng.below(i + 1)]);
    std::vector<std::uint64_t> image(nodes * 2);
    for (unsigned k = 0; k < nodes; ++k) {
        image[order[k] * 2] = ring + order[(k + 1) % nodes] * 16;
        image[order[k] * 2 + 1] = k;
    }
    b.words(ring, image);

    // A large array for the independent stream.
    const Addr stream = 0x4000000;
    b.doubles(stream, kernel::randomDoubles(steps * 48 + 64, 11));

    const RegIndex chase = intReg(11), p_s = intReg(12);
    const RegIndex count = intReg(13), v = intReg(14);

    b.la(chase, ring);
    b.la(p_s, stream);
    b.li(count, steps);
    for (int lane = 0; lane < 4; ++lane)
        b.fsub(fpReg(4 + lane), fpReg(4 + lane), fpReg(4 + lane));

    b.label("loop");
    // Serial chase: one dependent (usually missing) load per iteration.
    b.ld(chase, chase, 0);
    b.ld(v, chase, 8);
    b.xor_(intReg(10), intReg(10), v);
    // A wide burst of independent stream work per chase step: whether
    // it fits the instruction window decides the achieved IPC.
    for (int group = 0; group < 12; ++group) {
        for (int lane = 0; lane < 4; ++lane) {
            const std::int64_t off = 8 * (group * 4 + lane);
            b.fld(fpReg(8 + lane), p_s, off);
            b.fadd(fpReg(4 + lane), fpReg(4 + lane), fpReg(8 + lane));
        }
    }
    b.addi(p_s, p_s, 48 * 8);
    b.addi(count, count, -1);
    b.bne(count, intReg(0), "loop");

    b.fadd(fpReg(4), fpReg(4), fpReg(5));
    b.fadd(fpReg(6), fpReg(6), fpReg(7));
    b.fadd(fpReg(4), fpReg(4), fpReg(6));
    b.fcvtfi(intReg(9), fpReg(4));
    b.xor_(intReg(10), intReg(10), intReg(9));
    b.halt();
    return b.build("chase+stream");
}

} // namespace

int
main(int argc, char **argv)
{
    ConfigMap args = ConfigMap::fromArgs(argc, argv);
    if (const std::string bad = args.unknownKeyMessage({"steps"});
        !bad.empty()) {
        std::fprintf(stderr, "ERROR: %s\n", bad.c_str());
        return 2;
    }
    const auto steps = static_cast<unsigned>(
        readArgsOrExit([&] { return args.getCount("steps", 4000); }));

    Program prog = buildChaseAndStream(/*nodes=*/4096, steps);
    std::printf("Program: %zu static instructions; first lines:\n",
                prog.size());
    std::cout << disassemble(prog).substr(0, 400) << "  ...\n\n";

    // 1. Functional check first - is the program even correct?
    FunctionalCore golden(prog);
    golden.run(50'000'000);
    if (!golden.halted()) {
        std::fprintf(stderr, "program did not halt!\n");
        return 1;
    }
    std::printf("functional run: %llu instructions, checksum r10 = "
                "%#llx\n\n",
                static_cast<unsigned long long>(golden.instCount()),
                static_cast<unsigned long long>(golden.reg(intReg(10))));

    // 2. Timing across IQ designs.
    std::printf("%-26s %8s %10s\n", "design", "ipc", "validated");
    for (auto [label, make] :
         std::initializer_list<
             std::pair<const char *, SimConfig>>{
             {"ideal 32 (conventional)", makeIdealConfig(32, "swim")},
             {"ideal 512", makeIdealConfig(512, "swim")},
             {"segmented 512 comb/128",
              makeSegmentedConfig(512, 128, true, true, "swim")},
             {"prescheduled 704", makePrescheduledConfig(704, "swim")}}) {
        // Swap in our custom program via a dedicated core.
        make.core.finalize();
        OooCore core(prog, make.core);
        core.run(~0ULL, 50'000'000);
        bool ok = core.halted() &&
                  core.commitRegs()[intReg(10)] == golden.reg(intReg(10));
        std::printf("%-26s %8.3f %10s\n", label, core.ipc(),
                    ok ? "yes" : "NO");
    }

    std::printf("\nThe serial chase bounds every design; the question "
                "is how much of the independent\nstream each queue "
                "sustains around it.\n");
    return 0;
}
