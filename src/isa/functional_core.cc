#include "functional_core.hh"

#include <bit>
#include <utility>

#include "common/logging.hh"

namespace sciq {

FunctionalCore::FunctionalCore(const Program &prog, bool bb_cache)
    : program(prog), curPc(prog.entry())
{
    prog.load(mem);
    if (bb_cache)
        blocks = std::make_unique<BbCache>(program);
}

bool
FunctionalCore::step()
{
    if (isHalted)
        return false;

    const Instruction *inst = program.fetch(curPc);
    SCIQ_ASSERT(inst != nullptr,
                "functional core ran off the program at pc %#llx",
                static_cast<unsigned long long>(curPc));

    ExecResult res = execute(*inst, curPc, *this);
    ++executed;
    prevPc = curPc;
    prevResult = res;
    prevInst = inst;
    if (res.halted) {
        isHalted = true;
        return false;
    }
    curPc = res.nextPc;
    return true;
}

std::uint64_t
FunctionalCore::run(std::uint64_t max_insts)
{
    if (blocks) {
        return runBlocks(max_insts,
                         [](const BbOp &, Addr, const ExecResult &) {});
    }
    const std::uint64_t start = executed;
    while (!isHalted && executed - start < max_insts)
        step();
    return executed - start;
}

void
FunctionalCore::save(serial::Writer &w) const
{
    char *p = w.span(regs.size(), 8);
    for (std::uint64_t reg : regs) {
        serial::storeLe(p, reg);
        p += 8;
    }
    w.u64(curPc);
    w.u8(isHalted ? 1 : 0);
    w.u64(executed);
    mem.save(w);
}

FunctionalCore::SavedState
FunctionalCore::decode(serial::Reader &r)
{
    SavedState s;
    const char *p = r.span(s.regs.size(), 8);
    for (std::uint64_t &reg : s.regs) {
        reg = serial::loadLe<std::uint64_t>(p);
        p += 8;
    }
    s.pc = r.u64();
    s.halted = r.u8() != 0;
    s.executed = r.u64();
    s.memory.restore(r);
    return s;
}

void
FunctionalCore::restore(serial::Reader &r)
{
    SavedState s = decode(r);
    regs = s.regs;
    curPc = s.pc;
    isHalted = s.halted;
    executed = s.executed;
    mem = std::move(s.memory);
    prevPc = 0;
    prevResult = ExecResult{};
    prevInst = nullptr;
}

double
FunctionalCore::fregAsDouble(unsigned n) const
{
    return std::bit_cast<double>(regs[fpReg(n)]);
}

} // namespace sciq
