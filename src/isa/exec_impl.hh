/**
 * @file
 * The architectural execution semantics as a template over the execute
 * context, so the one switch body serves three instantiations:
 *
 *   - execute() in exec.cc binds it to the virtual ExecContext
 *     interface (the step()-based functional path);
 *   - the pipeline's execute-at-fetch oracle binds it to the final
 *     OooCore::FetchContext (ooo_core.cc), so the speculative register
 *     reads and writes inline and the result stays in registers;
 *   - the basic-block cache's replay loop binds it to a concrete
 *     context with inline register-file and page-cached memory access
 *     (functional_core.hh), removing the per-operand virtual dispatch.
 *
 * Because all paths instantiate the same body, they cannot drift:
 * bit-identity of the block-cached interpreter (DESIGN.md §14) and of
 * the fetch oracle holds by construction, not by a parallel
 * implementation kept in sync by hand.
 */

#ifndef SCIQ_ISA_EXEC_IMPL_HH
#define SCIQ_ISA_EXEC_IMPL_HH

#include <bit>
#include <cmath>
#include <limits>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "isa/exec.hh"

namespace sciq {
namespace exec_detail {

inline double
asDouble(std::uint64_t raw)
{
    return std::bit_cast<double>(raw);
}

inline std::uint64_t
asRaw(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** double -> int64 conversion with defined behaviour on NaN/overflow. */
inline std::int64_t
toInt(double v)
{
    if (std::isnan(v))
        return 0;
    if (v >= 9.2233720368547758e18)
        return std::numeric_limits<std::int64_t>::max();
    if (v <= -9.2233720368547758e18)
        return std::numeric_limits<std::int64_t>::min();
    return static_cast<std::int64_t>(v);
}

} // namespace exec_detail

/**
 * Force the execute body into its (few) callers: the block-replay loop
 * must not pay a call plus a 40-byte struct return per instruction,
 * and each caller instantiates the template exactly once.
 */
#if defined(__GNUC__) || defined(__clang__)
#define SCIQ_EXEC_INLINE __attribute__((always_inline)) inline
#else
#define SCIQ_EXEC_INLINE inline
#endif

/** Execute `inst` at `pc` against `xc` and return the outcome. */
template <typename XC>
SCIQ_EXEC_INLINE ExecResult
executeImpl(const Instruction &inst, Addr pc, XC &xc)
{
    using exec_detail::asDouble;
    using exec_detail::asRaw;
    using exec_detail::toInt;

    ExecResult res;
    res.nextPc = pc + kInstBytes;

    auto rd_r = [&](RegIndex r) -> std::uint64_t {
        return r == kZeroReg ? 0 : xc.readReg(r);
    };
    auto wr_r = [&](RegIndex r, std::uint64_t v) {
        if (r != kZeroReg && r != kInvalidReg)
            xc.writeReg(r, v);
    };
    auto s = [](std::uint64_t v) { return static_cast<std::int64_t>(v); };
    auto u = [](std::int64_t v) { return static_cast<std::uint64_t>(v); };

    const std::uint64_t a =
        inst.rs1 == kInvalidReg ? 0 : rd_r(inst.rs1);
    const std::uint64_t b =
        inst.rs2 == kInvalidReg ? 0 : rd_r(inst.rs2);
    const std::int64_t imm = inst.imm;

    auto branch_to = [&](bool taken) {
        res.taken = taken;
        if (taken)
            res.nextPc = pc + u(imm) * kInstBytes;
    };

    switch (inst.op) {
      // Integer ALU.
      case Opcode::ADD: wr_r(inst.rd, a + b); break;
      case Opcode::SUB: wr_r(inst.rd, a - b); break;
      case Opcode::AND: wr_r(inst.rd, a & b); break;
      case Opcode::OR: wr_r(inst.rd, a | b); break;
      case Opcode::XOR: wr_r(inst.rd, a ^ b); break;
      case Opcode::SLL: wr_r(inst.rd, a << (b & 63)); break;
      case Opcode::SRL: wr_r(inst.rd, a >> (b & 63)); break;
      case Opcode::SRA: wr_r(inst.rd, u(s(a) >> (b & 63))); break;
      case Opcode::SLT: wr_r(inst.rd, s(a) < s(b) ? 1 : 0); break;
      case Opcode::SLTU: wr_r(inst.rd, a < b ? 1 : 0); break;
      case Opcode::ADDI: wr_r(inst.rd, a + u(imm)); break;
      case Opcode::ANDI: wr_r(inst.rd, a & u(imm)); break;
      case Opcode::ORI: wr_r(inst.rd, a | u(imm)); break;
      case Opcode::XORI: wr_r(inst.rd, a ^ u(imm)); break;
      case Opcode::SLTI: wr_r(inst.rd, s(a) < imm ? 1 : 0); break;
      case Opcode::SLLI: wr_r(inst.rd, a << (imm & 63)); break;
      case Opcode::SRLI: wr_r(inst.rd, a >> (imm & 63)); break;
      case Opcode::SRAI: wr_r(inst.rd, u(s(a) >> (imm & 63))); break;
      case Opcode::LUI: wr_r(inst.rd, u(imm) << 14); break;

      // Integer multiply / divide.
      case Opcode::MUL: wr_r(inst.rd, a * b); break;
      case Opcode::MULH:
        wr_r(inst.rd,
             static_cast<std::uint64_t>(
                 (static_cast<__int128>(s(a)) * s(b)) >> 64));
        break;
      case Opcode::DIV:
        if (b == 0) {
            wr_r(inst.rd, ~0ULL);
        } else if (s(a) == std::numeric_limits<std::int64_t>::min() &&
                   s(b) == -1) {
            wr_r(inst.rd, a);
        } else {
            wr_r(inst.rd, u(s(a) / s(b)));
        }
        break;
      case Opcode::REM:
        if (b == 0) {
            wr_r(inst.rd, a);
        } else if (s(a) == std::numeric_limits<std::int64_t>::min() &&
                   s(b) == -1) {
            wr_r(inst.rd, 0);
        } else {
            wr_r(inst.rd, u(s(a) % s(b)));
        }
        break;

      // Floating point.
      case Opcode::FADD: wr_r(inst.rd, asRaw(asDouble(a) + asDouble(b)));
        break;
      case Opcode::FSUB: wr_r(inst.rd, asRaw(asDouble(a) - asDouble(b)));
        break;
      case Opcode::FMUL: wr_r(inst.rd, asRaw(asDouble(a) * asDouble(b)));
        break;
      case Opcode::FDIV: wr_r(inst.rd, asRaw(asDouble(a) / asDouble(b)));
        break;
      case Opcode::FSQRT:
        wr_r(inst.rd, asRaw(std::sqrt(asDouble(a))));
        break;
      case Opcode::FMIN:
        wr_r(inst.rd, asRaw(std::fmin(asDouble(a), asDouble(b))));
        break;
      case Opcode::FMAX:
        wr_r(inst.rd, asRaw(std::fmax(asDouble(a), asDouble(b))));
        break;
      case Opcode::FNEG: wr_r(inst.rd, asRaw(-asDouble(a))); break;
      case Opcode::FABS: wr_r(inst.rd, asRaw(std::fabs(asDouble(a))));
        break;
      case Opcode::FMOV: wr_r(inst.rd, a); break;
      case Opcode::FCMPEQ:
        wr_r(inst.rd, asDouble(a) == asDouble(b) ? 1 : 0);
        break;
      case Opcode::FCMPLT:
        wr_r(inst.rd, asDouble(a) < asDouble(b) ? 1 : 0);
        break;
      case Opcode::FCMPLE:
        wr_r(inst.rd, asDouble(a) <= asDouble(b) ? 1 : 0);
        break;
      case Opcode::FCVTIF:
        wr_r(inst.rd, asRaw(static_cast<double>(s(a))));
        break;
      case Opcode::FCVTFI:
        wr_r(inst.rd, u(toInt(asDouble(a))));
        break;

      // Memory.
      case Opcode::LD:
      case Opcode::FLD:
        res.effAddr = a + u(imm);
        res.memValue = xc.readMem(res.effAddr, 8);
        wr_r(inst.rd, res.memValue);
        break;
      case Opcode::LW: {
        res.effAddr = a + u(imm);
        std::uint64_t raw = xc.readMem(res.effAddr, 4);
        res.memValue = u(signExtend(raw, 32));
        wr_r(inst.rd, res.memValue);
        break;
      }
      case Opcode::ST:
      case Opcode::FST:
        res.effAddr = a + u(imm);
        res.memValue = b;
        xc.writeMem(res.effAddr, 8, b);
        break;
      case Opcode::SW:
        res.effAddr = a + u(imm);
        res.memValue = b & 0xffffffffULL;
        xc.writeMem(res.effAddr, 4, b);
        break;

      // Control.
      case Opcode::BEQ: branch_to(a == b); break;
      case Opcode::BNE: branch_to(a != b); break;
      case Opcode::BLT: branch_to(s(a) < s(b)); break;
      case Opcode::BGE: branch_to(s(a) >= s(b)); break;
      case Opcode::BLTU: branch_to(a < b); break;
      case Opcode::BGEU: branch_to(a >= b); break;
      case Opcode::J:
        res.taken = true;
        res.nextPc = pc + u(imm) * kInstBytes;
        break;
      case Opcode::JAL:
        wr_r(inst.rd, pc + kInstBytes);
        res.taken = true;
        res.nextPc = pc + u(imm) * kInstBytes;
        break;
      case Opcode::JR:
        res.taken = true;
        res.nextPc = a;
        break;
      case Opcode::JALR:
        res.taken = true;
        res.nextPc = a;
        wr_r(inst.rd, pc + kInstBytes);
        break;

      case Opcode::NOP:
        break;
      case Opcode::HALT:
        res.halted = true;
        res.nextPc = pc;
        break;

      case Opcode::NumOpcodes:
        panic("executing invalid opcode");
    }

    return res;
}

} // namespace sciq

#endif // SCIQ_ISA_EXEC_IMPL_HH
