/** @file Integration tests for the out-of-order core pipeline. */

#include <gtest/gtest.h>

#include "core/ooo_core.hh"
#include "isa/asm_builder.hh"
#include "isa/assembler.hh"
#include "isa/functional_core.hh"

using namespace sciq;

namespace {

CoreParams
smallParams(IqKind kind)
{
    CoreParams p;
    p.iqKind = kind;
    p.iq.numEntries = kind == IqKind::Prescheduled ? 128 : 64;
    p.iq.segmentSize = 16;
    p.iq.numFifos = 8;
    p.iq.fifoDepth = 8;
    return p;
}

Program
sumLoop(int n)
{
    AsmBuilder b;
    b.addi(intReg(1), intReg(0), n);
    b.addi(intReg(2), intReg(0), 0);
    b.label("loop");
    b.add(intReg(2), intReg(2), intReg(1));
    b.addi(intReg(1), intReg(1), -1);
    b.bne(intReg(1), intReg(0), "loop");
    b.halt();
    return b.build("sum");
}

} // namespace

class CorePerIq : public ::testing::TestWithParam<IqKind> {};

TEST_P(CorePerIq, SumLoopMatchesFunctionalModel)
{
    Program prog = sumLoop(200);
    OooCore core(prog, smallParams(GetParam()));
    core.run(~0ULL, 200000);
    ASSERT_TRUE(core.halted()) << iqKindName(GetParam());

    FunctionalCore golden(prog);
    golden.run();
    EXPECT_EQ(core.committedCount(), golden.instCount());
    for (RegIndex r = 1; r < kNumArchRegs; ++r)
        EXPECT_EQ(core.commitRegs()[r], golden.reg(r)) << "reg " << r;
    EXPECT_EQ(core.commitRegs()[intReg(2)], 200u * 201u / 2u);
}

TEST_P(CorePerIq, StoresReachCommittedMemory)
{
    Program prog = assemble(R"(
        lui r1, 8
        addi r2, r0, 4321
        st r2, 0(r1)
        sw r2, 8(r1)
        ld r3, 0(r1)
        halt
    )");
    OooCore core(prog, smallParams(GetParam()));
    core.run(~0ULL, 100000);
    ASSERT_TRUE(core.halted());
    EXPECT_EQ(core.commitMemory().read(0x20000, 8), 4321u);
    EXPECT_EQ(core.commitMemory().read(0x20008, 4), 4321u);
    EXPECT_EQ(core.commitRegs()[intReg(3)], 4321u);
}

INSTANTIATE_TEST_SUITE_P(AllIqKinds, CorePerIq,
                         ::testing::Values(IqKind::Ideal, IqKind::Segmented,
                                           IqKind::Prescheduled,
                                           IqKind::Fifo),
                         [](const auto &info) {
                             return iqKindName(info.param);
                         });

TEST(Core, IndependentWorkExploitsWidth)
{
    AsmBuilder b;
    // 512 independent single-cycle instructions.
    for (int i = 0; i < 512; ++i)
        b.addi(intReg(1 + (i % 24)), intReg(0), i % 1000);
    b.halt();
    const Program prog = b.build();
    OooCore core(prog, smallParams(IqKind::Ideal));
    core.run(~0ULL, 100000);
    ASSERT_TRUE(core.halted());
    EXPECT_GT(core.ipc(), 4.0);  // an 8-wide machine should fly
}

TEST(Core, DependentChainLimitsToOnePerCycle)
{
    AsmBuilder b;
    const int n = 400;
    b.addi(intReg(1), intReg(0), 1);
    for (int i = 0; i < n; ++i)
        b.add(intReg(1), intReg(1), intReg(1));  // serial chain
    b.halt();
    const Program prog = b.build();
    OooCore core(prog, smallParams(IqKind::Ideal));
    core.run(~0ULL, 100000);
    ASSERT_TRUE(core.halted());
    // Back-to-back issue of single-cycle dependants: about one per
    // cycle plus pipeline fill.
    EXPECT_GT(core.cycles(), static_cast<Cycle>(n));
    EXPECT_LT(core.cycles(), static_cast<Cycle>(n + 80));
}

TEST(Core, BackToBackAlsoWorksInSegmentedSegmentZero)
{
    AsmBuilder b;
    const int n = 300;
    b.addi(intReg(1), intReg(0), 1);
    for (int i = 0; i < n; ++i)
        b.add(intReg(1), intReg(1), intReg(1));
    b.halt();
    const Program prog = b.build();
    OooCore core(prog, smallParams(IqKind::Segmented));
    core.run(~0ULL, 100000);
    ASSERT_TRUE(core.halted());
    EXPECT_LT(core.cycles(), static_cast<Cycle>(n + 120));
}

TEST(Core, MispredictsResolveAndSquash)
{
    // A data-dependent branch pattern the predictor cannot learn.
    Program prog = assemble(R"(
        addi r1, r0, 2000
        addi r5, r0, 4321
    loop:
        slli r6, r5, 13
        xor  r5, r5, r6
        srli r6, r5, 7
        xor  r5, r5, r6
        andi r6, r5, 1
        beq  r6, r0, skip
        addi r2, r2, 1
    skip:
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
    )");
    CoreParams p = smallParams(IqKind::Ideal);
    OooCore core(prog, p);
    core.run(~0ULL, 500000);
    ASSERT_TRUE(core.halted());
    EXPECT_GT(core.mispredictsResolved.value(), 200.0);
    EXPECT_GT(core.squashes.value(), 200.0);
    EXPECT_GT(core.wrongPathInsts.value(), 0.0);

    // And the result is still architecturally exact.
    FunctionalCore golden(prog);
    golden.run();
    EXPECT_EQ(core.commitRegs()[intReg(2)], golden.reg(intReg(2)));
}

TEST(Core, WrongPathCanBeDisabled)
{
    Program prog = sumLoop(50);
    CoreParams p = smallParams(IqKind::Ideal);
    p.modelWrongPath = false;
    OooCore core(prog, p);
    core.run(~0ULL, 100000);
    ASSERT_TRUE(core.halted());
    EXPECT_EQ(core.wrongPathInsts.value(), 0.0);
}

TEST(Core, StoreToLoadForwardingHappens)
{
    AsmBuilder b;
    b.la(intReg(1), 0x20000);
    b.addi(intReg(4), intReg(0), 100);
    b.label("loop");
    b.addi(intReg(2), intReg(2), 3);
    b.st(intReg(2), intReg(1), 0);
    b.ld(intReg(3), intReg(1), 0);  // immediately reload
    b.addi(intReg(4), intReg(4), -1);
    b.bne(intReg(4), intReg(0), "loop");
    b.halt();
    const Program prog = b.build();
    OooCore core(prog, smallParams(IqKind::Ideal));
    core.run(~0ULL, 100000);
    ASSERT_TRUE(core.halted());
    EXPECT_GT(core.lsqUnit().loadForwards.value(), 50.0);
    EXPECT_EQ(core.commitRegs()[intReg(3)], 300u);
}

TEST(Core, FrontEndDepthBoundsBestCaseLatency)
{
    // Even a single instruction pays the 15-cycle front end.
    Program prog = assemble("halt\n");
    OooCore core(prog, smallParams(IqKind::Ideal));
    core.run(~0ULL, 1000);
    ASSERT_TRUE(core.halted());
    EXPECT_GE(core.cycles(), 15u);
    EXPECT_LT(core.cycles(), 40u);
}

TEST(Core, SegmentedPaysExtraDispatchCycle)
{
    Program prog = assemble("halt\n");
    OooCore ideal(prog, smallParams(IqKind::Ideal));
    ideal.run(~0ULL, 1000);
    OooCore seg(prog, smallParams(IqKind::Segmented));
    seg.run(~0ULL, 1000);
    EXPECT_EQ(seg.cycles(), ideal.cycles() + 1);
}

TEST(Core, RobSizeDefaultsToThreeTimesIq)
{
    CoreParams p;
    p.iq.numEntries = 512;
    p.finalize();
    EXPECT_EQ(p.robSize, 1536u);
    EXPECT_EQ(p.lsqSize, 1536u);
    EXPECT_GT(p.numPhysRegs, 1536u + kNumArchRegs);
}

TEST(Core, LongLatencyOpsOverlapInIdealWindow)
{
    // 64 independent FP divides on 8 unpipelined units: about
    // 64/8 * 12 cycles once the window holds them all.
    AsmBuilder b;
    for (int i = 0; i < 64; ++i)
        b.fdiv(fpReg(1 + (i % 24)), fpReg(25), fpReg(26));
    b.halt();
    const Program prog = b.build();
    OooCore core(prog, smallParams(IqKind::Ideal));
    core.run(~0ULL, 10000);
    ASSERT_TRUE(core.halted());
    EXPECT_LT(core.cycles(), 200u);
    EXPECT_GE(core.cycles(), 96u);  // 8 batches x 12 cycles
}

TEST(Core, HaltOnWrongPathDoesNotEndSimulation)
{
    // The branch skips the halt; speculation may fetch it, but the
    // program must keep running to the real halt.
    Program prog = assemble(R"(
        addi r1, r0, 50
    loop:
        addi r1, r1, -1
        beq r1, r0, out
        j loop
    out:
        addi r2, r0, 7
        halt
    )");
    OooCore core(prog, smallParams(IqKind::Ideal));
    core.run(~0ULL, 100000);
    ASSERT_TRUE(core.halted());
    EXPECT_EQ(core.commitRegs()[intReg(2)], 7u);
}
