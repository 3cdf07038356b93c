#include "functional_core.hh"

#include <bit>

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

FunctionalCore::State
FunctionalCore::capture() const
{
    return {regs, curPc, isHalted, executed, mem};
}

void
FunctionalCore::adopt(const State &s)
{
    regs = s.regs;
    curPc = s.pc;
    isHalted = s.halted;
    executed = s.executed;
    mem = s.memory;
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
