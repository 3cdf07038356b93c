/** @file Tests for the fluent label-resolving program builder. */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "isa/asm_builder.hh"
#include "isa/exec.hh"
#include "isa/functional_core.hh"

using namespace sciq;

TEST(AsmBuilder, ForwardAndBackwardLabels)
{
    AsmBuilder b;
    b.label("start");
    b.addi(intReg(1), intReg(0), 3);
    b.label("loop");
    b.addi(intReg(1), intReg(1), -1);
    b.bne(intReg(1), intReg(0), "loop");
    b.beq(intReg(0), intReg(0), "end");
    b.addi(intReg(2), intReg(0), 99);  // skipped
    b.label("end");
    b.halt();
    Program p = b.build();

    // bne at index 2 targets index 1: offset -1.
    EXPECT_EQ(p.instructions()[2].imm, -1);
    // beq at index 3 targets index 5: offset +2.
    EXPECT_EQ(p.instructions()[3].imm, 2);
}

TEST(AsmBuilder, UndefinedLabelPanics)
{
    AsmBuilder b;
    b.j("nowhere");
    EXPECT_THROW(b.build(), PanicError);
}

TEST(AsmBuilder, DuplicateLabelPanics)
{
    AsmBuilder b;
    b.label("x");
    b.nop();
    EXPECT_THROW(b.label("x"), PanicError);
}

class LiValues : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(LiValues, LoadsArbitraryConstants)
{
    const std::int64_t value = GetParam();
    AsmBuilder b;
    b.li(intReg(5), value);
    b.halt();
    Program p = b.build();
    FunctionalCore core(p);
    core.run();
    EXPECT_EQ(core.reg(intReg(5)), static_cast<std::uint64_t>(value))
        << "value " << value << " program size " << p.size();
}

INSTANTIATE_TEST_SUITE_P(
    Constants, LiValues,
    ::testing::Values(0LL, 1LL, -1LL, 42LL, -8192LL, 8191LL, 8192LL,
                      -8193LL, 0x10000LL, 0xDEADBEEFLL, -0xDEADBEEFLL,
                      0x0102030405060708LL, -0x0102030405060708LL,
                      std::numeric_limits<std::int64_t>::max(),
                      std::numeric_limits<std::int64_t>::min()));

TEST(AsmBuilder, LiSmallValuesAreOneInstruction)
{
    AsmBuilder b;
    b.li(intReg(1), 100);
    EXPECT_EQ(b.here(), 1u);
    AsmBuilder b2;
    b2.li(intReg(1), 100000);
    EXPECT_GT(b2.here(), 1u);
}

TEST(AsmBuilder, LaMatchesAddress)
{
    AsmBuilder b;
    b.la(intReg(3), 0x12345678);
    b.halt();
    const Program prog = b.build();
    FunctionalCore core(prog);
    core.run();
    EXPECT_EQ(core.reg(intReg(3)), 0x12345678u);
}

TEST(AsmBuilder, DataBlobsLoaded)
{
    AsmBuilder b;
    b.doubles(0x40000, {1.5, -2.25});
    b.words(0x50000, {7, 8});
    b.halt();
    Program p = b.build();
    SparseMemory mem;
    p.load(mem);
    EXPECT_DOUBLE_EQ(mem.readDouble(0x40000), 1.5);
    EXPECT_DOUBLE_EQ(mem.readDouble(0x40008), -2.25);
    EXPECT_EQ(mem.read(0x50000, 8), 7u);
    EXPECT_EQ(mem.read(0x50008, 8), 8u);
}

TEST(AsmBuilder, ProgramFetchByPc)
{
    AsmBuilder b(0x2000);
    b.nop();
    b.halt();
    Program p = b.build();
    EXPECT_EQ(p.base(), 0x2000u);
    ASSERT_NE(p.fetch(0x2000), nullptr);
    EXPECT_EQ(p.fetch(0x2000)->op, Opcode::NOP);
    EXPECT_EQ(p.fetch(0x2004)->op, Opcode::HALT);
    EXPECT_EQ(p.fetch(0x2008), nullptr);
    EXPECT_EQ(p.fetch(0x2002), nullptr);  // misaligned
    EXPECT_EQ(p.fetch(0x1ffc), nullptr);  // below base
}

TEST(AsmBuilder, MovIsAddiZero)
{
    AsmBuilder b;
    b.mov(intReg(2), intReg(1));
    Program p = b.build();
    EXPECT_EQ(p.instructions()[0].op, Opcode::ADDI);
    EXPECT_EQ(p.instructions()[0].imm, 0);
}

TEST(AsmBuilder, UnencodableImmediatePanicsAtBuild)
{
    AsmBuilder b;
    b.addi(intReg(1), intReg(0), 1 << 20);
    EXPECT_THROW(b.build(), PanicError);
}
