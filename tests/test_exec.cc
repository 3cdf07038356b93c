/** @file Architectural semantics tests for every SRV operation. */

#include <gtest/gtest.h>

#include <bit>
#include <limits>

#include "isa/exec.hh"
#include "isa/sparse_memory.hh"

using namespace sciq;

namespace {

/** Simple ExecContext over arrays for semantics testing. */
class TestContext : public ExecContext
{
  public:
    std::uint64_t readReg(RegIndex r) override { return regs[r]; }
    void writeReg(RegIndex r, std::uint64_t v) override { regs[r] = v; }
    std::uint64_t readMem(Addr a, unsigned s) override
    {
        return mem.read(a, s);
    }
    void writeMem(Addr a, unsigned s, std::uint64_t v) override
    {
        mem.write(a, s, v);
    }

    std::uint64_t regs[kNumArchRegs] = {};
    SparseMemory mem;
};

/**
 * gtest prints an AluCase as its raw bytes, and gtest_discover_tests turns
 * that printout into the CTest name. The bytes after the one-byte opcode are
 * therefore a named, zeroed member rather than compiler padding, which would
 * hold whatever the stack held and give the test a different name per run.
 */
struct AluCase
{
    Opcode op;
    std::uint8_t pad[7];
    std::uint64_t a, b;
    std::uint64_t expected;
};
static_assert(sizeof(AluCase) == 32, "AluCase must have no hidden padding");

constexpr AluCase
alu(Opcode op, std::uint64_t a, std::uint64_t b, std::uint64_t expected)
{
    return AluCase{op, {}, a, b, expected};
}

class AluSemantics : public ::testing::TestWithParam<AluCase>
{
  protected:
    TestContext xc;
};

constexpr std::uint64_t kMinI64 = 0x8000000000000000ULL;

} // namespace

TEST_P(AluSemantics, RegisterRegister)
{
    const AluCase &c = GetParam();
    xc.regs[1] = c.a;
    xc.regs[2] = c.b;
    Instruction i;
    i.op = c.op;
    i.rd = intReg(3);
    i.rs1 = intReg(1);
    i.rs2 = intReg(2);
    execute(i, 0x1000, xc);
    EXPECT_EQ(xc.regs[3], c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    IntOps, AluSemantics,
    ::testing::Values(
        alu(Opcode::ADD, 5, 7, 12),
        alu(Opcode::ADD, ~0ULL, 1, 0),  // wraparound
        alu(Opcode::SUB, 5, 7, static_cast<std::uint64_t>(-2)),
        alu(Opcode::AND, 0xF0F0, 0xFF00, 0xF000),
        alu(Opcode::OR, 0xF0F0, 0x0F0F, 0xFFFF),
        alu(Opcode::XOR, 0xFFFF, 0x0F0F, 0xF0F0),
        alu(Opcode::SLL, 1, 63, 1ULL << 63),
        alu(Opcode::SLL, 1, 64, 1),  // shift amount masked to 6 bits
        alu(Opcode::SRL, kMinI64, 63, 1),
        alu(Opcode::SRA, kMinI64, 63, ~0ULL),
        alu(Opcode::SLT, static_cast<std::uint64_t>(-1), 1, 1),
        alu(Opcode::SLT, 1, static_cast<std::uint64_t>(-1), 0),
        alu(Opcode::SLTU, static_cast<std::uint64_t>(-1), 1, 0),
        alu(Opcode::MUL, 7, 6, 42),
        alu(Opcode::MULH, kMinI64, 2, static_cast<std::uint64_t>(-1)),
        alu(Opcode::DIV, static_cast<std::uint64_t>(-20), 3,
            static_cast<std::uint64_t>(-6)),
        alu(Opcode::DIV, 20, 0, ~0ULL),        // div-by-zero
        alu(Opcode::DIV, kMinI64, static_cast<std::uint64_t>(-1),
            kMinI64),                          // overflow
        alu(Opcode::REM, static_cast<std::uint64_t>(-20), 3,
            static_cast<std::uint64_t>(-2)),
        alu(Opcode::REM, 20, 0, 20),           // rem-by-zero
        alu(Opcode::REM, kMinI64, static_cast<std::uint64_t>(-1), 0)));

TEST(ExecSemantics, Immediates)
{
    TestContext xc;
    xc.regs[1] = 100;
    Instruction i;
    i.rd = intReg(2);
    i.rs1 = intReg(1);

    i.op = Opcode::ADDI;
    i.imm = -30;
    execute(i, 0, xc);
    EXPECT_EQ(xc.regs[2], 70u);

    i.op = Opcode::SLTI;
    i.imm = 101;
    execute(i, 0, xc);
    EXPECT_EQ(xc.regs[2], 1u);

    i.op = Opcode::SLLI;
    i.imm = 4;
    execute(i, 0, xc);
    EXPECT_EQ(xc.regs[2], 1600u);

    xc.regs[1] = static_cast<std::uint64_t>(-16);
    i.op = Opcode::SRAI;
    i.imm = 2;
    execute(i, 0, xc);
    EXPECT_EQ(xc.regs[2], static_cast<std::uint64_t>(-4));

    i.op = Opcode::LUI;
    i.imm = 3;
    execute(i, 0, xc);
    EXPECT_EQ(xc.regs[2], 3ULL << 14);
}

TEST(ExecSemantics, ZeroRegisterIgnored)
{
    TestContext xc;
    xc.regs[0] = 0;
    Instruction i;
    i.op = Opcode::ADDI;
    i.rd = intReg(0);
    i.rs1 = intReg(0);
    i.imm = 55;
    execute(i, 0, xc);
    EXPECT_EQ(xc.regs[0], 0u);  // write dropped
}

TEST(ExecSemantics, FloatingPoint)
{
    TestContext xc;
    auto set = [&](unsigned f, double v) {
        xc.regs[fpReg(f)] = std::bit_cast<std::uint64_t>(v);
    };
    auto get = [&](unsigned f) {
        return std::bit_cast<double>(xc.regs[fpReg(f)]);
    };
    set(1, 3.0);
    set(2, 4.0);
    Instruction i;
    i.rd = fpReg(3);
    i.rs1 = fpReg(1);
    i.rs2 = fpReg(2);

    i.op = Opcode::FADD;
    execute(i, 0, xc);
    EXPECT_DOUBLE_EQ(get(3), 7.0);
    i.op = Opcode::FSUB;
    execute(i, 0, xc);
    EXPECT_DOUBLE_EQ(get(3), -1.0);
    i.op = Opcode::FMUL;
    execute(i, 0, xc);
    EXPECT_DOUBLE_EQ(get(3), 12.0);
    i.op = Opcode::FDIV;
    execute(i, 0, xc);
    EXPECT_DOUBLE_EQ(get(3), 0.75);
    i.op = Opcode::FMIN;
    execute(i, 0, xc);
    EXPECT_DOUBLE_EQ(get(3), 3.0);
    i.op = Opcode::FMAX;
    execute(i, 0, xc);
    EXPECT_DOUBLE_EQ(get(3), 4.0);

    set(4, 16.0);
    i.op = Opcode::FSQRT;
    i.rs1 = fpReg(4);
    execute(i, 0, xc);
    EXPECT_DOUBLE_EQ(get(3), 4.0);

    set(5, -2.5);
    i.rs1 = fpReg(5);
    i.op = Opcode::FNEG;
    execute(i, 0, xc);
    EXPECT_DOUBLE_EQ(get(3), 2.5);
    i.op = Opcode::FABS;
    execute(i, 0, xc);
    EXPECT_DOUBLE_EQ(get(3), 2.5);
}

TEST(ExecSemantics, FpCompareWritesIntRegister)
{
    TestContext xc;
    xc.regs[fpReg(1)] = std::bit_cast<std::uint64_t>(1.0);
    xc.regs[fpReg(2)] = std::bit_cast<std::uint64_t>(2.0);
    Instruction i;
    i.rd = intReg(5);
    i.rs1 = fpReg(1);
    i.rs2 = fpReg(2);
    i.op = Opcode::FCMPLT;
    execute(i, 0, xc);
    EXPECT_EQ(xc.regs[5], 1u);
    i.op = Opcode::FCMPEQ;
    execute(i, 0, xc);
    EXPECT_EQ(xc.regs[5], 0u);
    i.op = Opcode::FCMPLE;
    execute(i, 0, xc);
    EXPECT_EQ(xc.regs[5], 1u);
}

TEST(ExecSemantics, Conversions)
{
    TestContext xc;
    Instruction i;

    xc.regs[1] = static_cast<std::uint64_t>(-7);
    i.op = Opcode::FCVTIF;
    i.rd = fpReg(1);
    i.rs1 = intReg(1);
    execute(i, 0, xc);
    EXPECT_DOUBLE_EQ(std::bit_cast<double>(xc.regs[fpReg(1)]), -7.0);

    xc.regs[fpReg(2)] = std::bit_cast<std::uint64_t>(42.9);
    i.op = Opcode::FCVTFI;
    i.rd = intReg(2);
    i.rs1 = fpReg(2);
    execute(i, 0, xc);
    EXPECT_EQ(xc.regs[2], 42u);  // truncating

    // NaN converts to 0 (defined behaviour).
    xc.regs[fpReg(2)] =
        std::bit_cast<std::uint64_t>(std::numeric_limits<double>::quiet_NaN());
    execute(i, 0, xc);
    EXPECT_EQ(xc.regs[2], 0u);

    // Saturating conversion of huge magnitudes.
    xc.regs[fpReg(2)] = std::bit_cast<std::uint64_t>(1e300);
    execute(i, 0, xc);
    EXPECT_EQ(xc.regs[2],
              static_cast<std::uint64_t>(
                  std::numeric_limits<std::int64_t>::max()));
}

TEST(ExecSemantics, LoadsAndStores)
{
    TestContext xc;
    xc.regs[1] = 0x1000;
    xc.mem.write(0x1008, 8, 0xCAFEBABE12345678ULL);

    Instruction ld;
    ld.op = Opcode::LD;
    ld.rd = intReg(2);
    ld.rs1 = intReg(1);
    ld.imm = 8;
    ExecResult r = execute(ld, 0, xc);
    EXPECT_EQ(xc.regs[2], 0xCAFEBABE12345678ULL);
    EXPECT_EQ(r.effAddr, 0x1008u);
    EXPECT_EQ(r.memValue, 0xCAFEBABE12345678ULL);

    // LW sign-extends.
    xc.mem.write(0x1010, 4, 0x80000000u);
    Instruction lw;
    lw.op = Opcode::LW;
    lw.rd = intReg(3);
    lw.rs1 = intReg(1);
    lw.imm = 0x10;
    execute(lw, 0, xc);
    EXPECT_EQ(xc.regs[3], 0xFFFFFFFF80000000ULL);

    Instruction st;
    st.op = Opcode::ST;
    st.rs1 = intReg(1);
    st.rs2 = intReg(2);
    st.imm = 0x20;
    ExecResult sr = execute(st, 0, xc);
    EXPECT_EQ(xc.mem.read(0x1020, 8), 0xCAFEBABE12345678ULL);
    EXPECT_EQ(sr.effAddr, 0x1020u);

    Instruction sw;
    sw.op = Opcode::SW;
    sw.rs1 = intReg(1);
    sw.rs2 = intReg(2);
    sw.imm = 0x30;
    execute(sw, 0, xc);
    EXPECT_EQ(xc.mem.read(0x1030, 8), 0x12345678u);  // only low 4 bytes
}

TEST(ExecSemantics, Branches)
{
    TestContext xc;
    xc.regs[1] = 5;
    xc.regs[2] = 5;
    Instruction b;
    b.op = Opcode::BEQ;
    b.rs1 = intReg(1);
    b.rs2 = intReg(2);
    b.imm = 10;
    ExecResult r = execute(b, 0x1000, xc);
    EXPECT_TRUE(r.taken);
    EXPECT_EQ(r.nextPc, 0x1000u + 40u);

    b.op = Opcode::BNE;
    r = execute(b, 0x1000, xc);
    EXPECT_FALSE(r.taken);
    EXPECT_EQ(r.nextPc, 0x1004u);

    // Negative offsets go backwards.
    b.op = Opcode::BGE;
    b.imm = -4;
    r = execute(b, 0x1000, xc);
    EXPECT_TRUE(r.taken);
    EXPECT_EQ(r.nextPc, 0x1000u - 16u);

    // Unsigned comparison differs from signed for negative values.
    xc.regs[1] = static_cast<std::uint64_t>(-1);
    xc.regs[2] = 1;
    b.op = Opcode::BLT;
    b.imm = 4;
    EXPECT_TRUE(execute(b, 0, xc).taken);
    b.op = Opcode::BLTU;
    EXPECT_FALSE(execute(b, 0, xc).taken);
}

TEST(ExecSemantics, JumpsAndLinks)
{
    TestContext xc;
    Instruction j;
    j.op = Opcode::J;
    j.imm = 5;
    ExecResult r = execute(j, 0x2000, xc);
    EXPECT_TRUE(r.taken);
    EXPECT_EQ(r.nextPc, 0x2014u);

    Instruction jal;
    jal.op = Opcode::JAL;
    jal.rd = intReg(31);
    jal.imm = -2;
    r = execute(jal, 0x2000, xc);
    EXPECT_EQ(r.nextPc, 0x1ff8u);
    EXPECT_EQ(xc.regs[31], 0x2004u);

    Instruction jr;
    jr.op = Opcode::JR;
    jr.rs1 = intReg(31);
    r = execute(jr, 0x3000, xc);
    EXPECT_EQ(r.nextPc, 0x2004u);

    // JALR with rs1 == rd: target uses the old value.
    xc.regs[7] = 0x4000;
    Instruction jalr;
    jalr.op = Opcode::JALR;
    jalr.rd = intReg(7);
    jalr.rs1 = intReg(7);
    r = execute(jalr, 0x3000, xc);
    EXPECT_EQ(r.nextPc, 0x4000u);
    EXPECT_EQ(xc.regs[7], 0x3004u);
}

TEST(ExecSemantics, HaltAndNop)
{
    TestContext xc;
    Instruction n;
    n.op = Opcode::NOP;
    ExecResult r = execute(n, 0x100, xc);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.nextPc, 0x104u);

    Instruction h;
    h.op = Opcode::HALT;
    r = execute(h, 0x100, xc);
    EXPECT_TRUE(r.halted);
}
