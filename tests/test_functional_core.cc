/** @file End-to-end tests of the functional (golden) simulator. */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "isa/asm_builder.hh"
#include "isa/assembler.hh"
#include "isa/functional_core.hh"

using namespace sciq;

TEST(FunctionalCore, Fibonacci)
{
    Program p = assemble(R"(
        addi r1, r0, 0      # fib(0)
        addi r2, r0, 1      # fib(1)
        addi r3, r0, 20     # count
    loop:
        add r4, r1, r2
        addi r1, r2, 0
        addi r2, r4, 0
        addi r3, r3, -1
        bne r3, r0, loop
        halt
    )");
    FunctionalCore core(p);
    core.run();
    EXPECT_EQ(core.reg(intReg(1)), 6765u);   // fib(20)
    EXPECT_EQ(core.reg(intReg(2)), 10946u);  // fib(21)
}

TEST(FunctionalCore, MemoryCopyLoop)
{
    AsmBuilder b;
    b.words(0x10000, {10, 20, 30, 40, 50});
    b.la(intReg(1), 0x10000);
    b.la(intReg(2), 0x20000);
    b.addi(intReg(3), intReg(0), 5);
    b.label("loop");
    b.ld(intReg(4), intReg(1), 0);
    b.st(intReg(4), intReg(2), 0);
    b.addi(intReg(1), intReg(1), 8);
    b.addi(intReg(2), intReg(2), 8);
    b.addi(intReg(3), intReg(3), -1);
    b.bne(intReg(3), intReg(0), "loop");
    b.halt();
    const Program prog = b.build();
    FunctionalCore core(prog);
    core.run();
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(core.memory().read(0x20000 + 8 * i, 8),
                  static_cast<std::uint64_t>(10 * (i + 1)));
    }
}

TEST(FunctionalCore, CallAndReturn)
{
    Program p = assemble(R"(
        addi r1, r0, 5
        jal r31, double
        addi r2, r1, 0
        jal r31, double
        halt
    double:
        add r1, r1, r1
        jr r31
    )");
    FunctionalCore core(p);
    core.run();
    EXPECT_EQ(core.reg(intReg(2)), 10u);
    EXPECT_EQ(core.reg(intReg(1)), 20u);
}

TEST(FunctionalCore, StepCountingAndHalt)
{
    Program p = assemble("nop\nnop\nhalt\n");
    FunctionalCore core(p);
    EXPECT_TRUE(core.step());
    EXPECT_EQ(core.instCount(), 1u);
    EXPECT_TRUE(core.step());
    EXPECT_FALSE(core.step());  // executes HALT
    EXPECT_TRUE(core.halted());
    EXPECT_EQ(core.instCount(), 3u);
    EXPECT_FALSE(core.step());  // stays halted
    EXPECT_EQ(core.instCount(), 3u);
}

TEST(FunctionalCore, RunWithInstructionBudget)
{
    Program p = assemble(R"(
        addi r1, r0, 100
    loop:
        addi r1, r1, -1
        bne r1, r0, loop
        halt
    )");
    FunctionalCore core(p);
    std::uint64_t executed = core.run(10);
    EXPECT_EQ(executed, 10u);
    EXPECT_FALSE(core.halted());
    core.run();
    EXPECT_TRUE(core.halted());
}

TEST(FunctionalCore, RunningOffProgramPanics)
{
    Program p = assemble("nop\n");  // no halt
    FunctionalCore core(p);
    EXPECT_THROW(core.run(), PanicError);
}

TEST(FunctionalCore, FpAccumulation)
{
    AsmBuilder b;
    b.doubles(0x30000, {0.5, 1.5, 2.5, 3.5});
    b.la(intReg(1), 0x30000);
    b.addi(intReg(2), intReg(0), 4);
    b.fsub(fpReg(1), fpReg(1), fpReg(1));
    b.label("loop");
    b.fld(fpReg(2), intReg(1), 0);
    b.fadd(fpReg(1), fpReg(1), fpReg(2));
    b.addi(intReg(1), intReg(1), 8);
    b.addi(intReg(2), intReg(2), -1);
    b.bne(intReg(2), intReg(0), "loop");
    b.halt();
    const Program prog = b.build();
    FunctionalCore core(prog);
    core.run();
    EXPECT_DOUBLE_EQ(core.fregAsDouble(1), 8.0);
}

TEST(FunctionalCore, DeterministicAcrossRuns)
{
    Program p = assemble(R"(
        addi r1, r0, 123
        addi r2, r0, 7
        mul r3, r1, r2
        div r4, r3, r2
        halt
    )");
    FunctionalCore a(p), b(p);
    a.run();
    b.run();
    for (RegIndex r = 0; r < kNumArchRegs; ++r)
        EXPECT_EQ(a.reg(r), b.reg(r));
    EXPECT_EQ(a.reg(intReg(4)), 123u);
}
