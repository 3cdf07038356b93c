/**
 * @file
 * The functional (architectural) SRV simulator.  Serves as the golden
 * reference for the out-of-order pipeline: after a pipelined run, the
 * committed architectural state must match this core's state exactly.
 *
 * Two interpreter paths produce bit-identical results (DESIGN.md §14):
 *
 *   - step(): fetch-decode-execute one instruction through the virtual
 *     ExecContext interface (the original path, kept as the
 *     differential reference and for single-step introspection);
 *   - runBlocks(): replay pre-decoded basic blocks from a BbCache with
 *     a devirtualized execute context (direct register-file access and
 *     page-cached memory), dispatching block-at-a-time.  This is the
 *     hot path for functional warming (5-10x the step() throughput).
 *
 * run() uses the block path when the cache is enabled (the default;
 * construct with `bb_cache` false for the reference, which the tests
 * and micro_warm compare against).
 */

#ifndef SCIQ_ISA_FUNCTIONAL_CORE_HH
#define SCIQ_ISA_FUNCTIONAL_CORE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>

#include "common/types.hh"
#include "isa/bb_cache.hh"
#include "isa/exec.hh"
#include "isa/exec_impl.hh"
#include "isa/program.hh"
#include "isa/sparse_memory.hh"

namespace sciq {

class FunctionalCore : public ExecContext
{
  public:
    /**
     * @param bb_cache enable the pre-decoded basic-block path for
     * run()/runBlocks().  Off = the step()-based reference; results
     * are bit-identical either way.  `prog` is borrowed: it must
     * outlive the core (no temporaries).
     */
    explicit FunctionalCore(const Program &prog, bool bb_cache = true);
    explicit FunctionalCore(const Program &&, bool = true) = delete;

    /** Execute one instruction; returns false once halted. */
    bool step();

    /**
     * Run until HALT or max_insts executed.  Stops exactly at the
     * instruction boundary: a stop mid-block executes a split-block
     * epilogue, never a whole block.
     * @return number of instructions executed by this call.
     */
    std::uint64_t run(std::uint64_t max_insts = ~0ULL);

    /**
     * Block-at-a-time execution with a per-instruction hook, called as
     * hook(const BbOp &, Addr pc, const ExecResult &) after each
     * instruction retires.  This is the functional-warming fast path:
     * the hook
     * trains caches/predictors per instruction while the dispatch
     * overhead is paid per block.  Requires the block cache; callers
     * must fall back to step() when blockCacheEnabled() is false.
     * @return number of instructions executed by this call.
     */
    template <typename Hook>
    std::uint64_t runBlocks(std::uint64_t max_insts, Hook &&hook);

    bool blockCacheEnabled() const { return blocks != nullptr; }

    /** The block cache, or nullptr when disabled (observability). */
    const BbCache *blockCache() const { return blocks.get(); }

    bool halted() const { return isHalted; }
    Addr pc() const { return curPc; }
    std::uint64_t instCount() const { return executed; }

    /** PC and outcome of the most recently executed instruction. */
    Addr lastPc() const { return prevPc; }
    const ExecResult &lastResult() const { return prevResult; }
    const Instruction *lastInst() const { return prevInst; }

    std::uint64_t reg(RegIndex r) const { return regs[r]; }
    double fregAsDouble(unsigned n) const;

    SparseMemory &memory() { return mem; }
    const SparseMemory &memory() const { return mem; }

    /** The borrowed program. */
    const Program &prog() const { return program; }

    /**
     * The architectural state: registers, PC, halt flag, instruction
     * count and the memory image.  The program is not part of it (a
     * warm state is shared only under a key that fixes the program),
     * and neither is the block cache, which is pure acceleration.
     */
    struct State
    {
        std::array<std::uint64_t, kNumArchRegs> regs{};
        Addr pc = 0;
        bool halted = false;
        std::uint64_t executed = 0;
        SparseMemory memory;
    };

    /** A copy of the architectural state, at a step boundary. */
    State capture() const;

    /**
     * Replace the architectural state with `s`.  Last-instruction
     * introspection (lastPc/lastInst/lastResult) resets to empty.
     */
    void adopt(const State &s);

    const std::array<std::uint64_t, kNumArchRegs> &regFile() const
    {
        return regs;
    }

    // ExecContext interface.
    std::uint64_t readReg(RegIndex r) override { return regs[r]; }
    void writeReg(RegIndex r, std::uint64_t v) override { regs[r] = v; }
    std::uint64_t
    readMem(Addr addr, unsigned size) override
    {
        return mem.read(addr, size);
    }
    void
    writeMem(Addr addr, unsigned size, std::uint64_t v) override
    {
        mem.write(addr, size, v);
    }

  private:
    /**
     * Devirtualized execute context for the block path: inline
     * register-file access plus a direct-mapped page-pointer cache so
     * in-page accesses skip SparseMemory's hash lookups.  Reads of
     * untouched pages never allocate (the memory image — and with it
     * every warm state — must not depend on the interpreter path).
     * Stack-local to one runBlocks() call, so adopt()/clear() can
     * never invalidate a live cached pointer.
     */
    class DirectContext
    {
      public:
        DirectContext(std::array<std::uint64_t, kNumArchRegs> &regs_,
                      SparseMemory &mem_)
            : regs(regs_), mem(mem_)
        {
            slotPageNo.fill(~0ULL);
        }

        std::uint64_t readReg(RegIndex r) { return regs[r]; }
        void writeReg(RegIndex r, std::uint64_t v) { regs[r] = v; }

        std::uint64_t
        readMem(Addr addr, unsigned size)
        {
            const Addr off = addr & (SparseMemory::kPageSize - 1);
            if (off + size <= SparseMemory::kPageSize) [[likely]] {
                const Addr page_no = addr >> SparseMemory::kPageShift;
                const std::size_t slot = page_no & (kPageSlots - 1);
                if (slotPageNo[slot] != page_no) {
                    std::uint8_t *p = mem.pageData(addr);
                    if (p == nullptr)
                        return 0;  // untouched page reads as zero
                    slotPageNo[slot] = page_no;
                    slotPtr[slot] = p;
                }
                return loadLe(slotPtr[slot] + off, size);
            }
            return mem.read(addr, size);  // page-crossing slow path
        }

        void
        writeMem(Addr addr, unsigned size, std::uint64_t v)
        {
            const Addr off = addr & (SparseMemory::kPageSize - 1);
            if (off + size <= SparseMemory::kPageSize) [[likely]] {
                const Addr page_no = addr >> SparseMemory::kPageShift;
                const std::size_t slot = page_no & (kPageSlots - 1);
                if (slotPageNo[slot] != page_no) {
                    slotPtr[slot] = mem.pageDataForWrite(addr);
                    slotPageNo[slot] = page_no;
                }
                storeLe(slotPtr[slot] + off, size, v);
                return;
            }
            mem.write(addr, size, v);  // page-crossing slow path
        }

      private:
        static std::uint64_t
        loadLe(const std::uint8_t *p, unsigned size)
        {
            if constexpr (std::endian::native == std::endian::little) {
                std::uint64_t v = 0;
                std::memcpy(&v, p, size);
                return v;
            } else {
                std::uint64_t v = 0;
                for (unsigned i = 0; i < size; ++i)
                    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
                return v;
            }
        }

        static void
        storeLe(std::uint8_t *p, unsigned size, std::uint64_t v)
        {
            if constexpr (std::endian::native == std::endian::little) {
                std::memcpy(p, &v, size);
            } else {
                for (unsigned i = 0; i < size; ++i)
                    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
            }
        }

        std::array<std::uint64_t, kNumArchRegs> &regs;
        SparseMemory &mem;

        /**
         * Direct-mapped page-pointer cache.  Slots only ever hold
         * allocated pages (absent-page reads return 0 uncached), and
         * SparseMemory page pointers are stable until clear()/adopt(),
         * which cannot happen while this stack-local context lives.
         */
        static constexpr std::size_t kPageSlots = 64;
        std::array<Addr, kPageSlots> slotPageNo;
        std::array<std::uint8_t *, kPageSlots> slotPtr{};
    };

    const Program &program;
    SparseMemory mem;
    std::array<std::uint64_t, kNumArchRegs> regs{};
    Addr curPc;
    bool isHalted = false;
    std::uint64_t executed = 0;

    Addr prevPc = 0;
    ExecResult prevResult{};
    const Instruction *prevInst = nullptr;

    std::unique_ptr<BbCache> blocks;
};

template <typename Hook>
std::uint64_t
FunctionalCore::runBlocks(std::uint64_t max_insts, Hook &&hook)
{
    SCIQ_ASSERT(blocks != nullptr,
                "runBlocks() requires the basic-block cache");
    const std::uint64_t start = executed;
    DirectContext xc(regs, mem);
    BasicBlock *bb = nullptr;

    while (!isHalted && executed - start < max_insts) {
        if (bb == nullptr) {
            bb = blocks->lookup(curPc);
            if (bb == nullptr) {
                // Off the program image: step() reproduces the
                // reference panic (message and counts identical).
                step();
                continue;
            }
        }

        // Split-block epilogue: never execute past the instruction
        // budget — warm-up keys and warm states depend on exact stops.
        const std::uint64_t budget = max_insts - (executed - start);
        const std::size_t n = std::min<std::uint64_t>(
            bb->ops.size(), budget);

        const Addr base_pc = bb->startPc;
        const BbOp *ops = bb->ops.data();
        ExecResult res{};
        for (std::size_t i = 0; i < n; ++i) {
            const BbOp &op = ops[i];
            const Addr op_pc = base_pc + i * kInstBytes;
            res = executeImpl(op.inst, op_pc, xc);
            hook(op, op_pc, res);
            if (res.halted) [[unlikely]] {
                executed += i + 1;
                isHalted = true;
                prevPc = op_pc;
                prevResult = res;
                prevInst = op.src;
                curPc = op_pc;  // step() leaves the PC at the HALT
                return executed - start;
            }
        }
        executed += n;

        const BbOp &last = ops[n - 1];
        prevPc = base_pc + (n - 1) * kInstBytes;
        prevResult = res;
        prevInst = last.src;
        curPc = res.nextPc;

        if (n == bb->ops.size()) {
            bb = blocks->successor(bb, res.nextPc, res.taken);
        } else {
            // Stopped mid-block: the budget is exhausted; a later run
            // resumes through lookup(curPc), discovering the suffix
            // block on first use.
            bb = nullptr;
        }
    }
    return executed - start;
}

} // namespace sciq

#endif // SCIQ_ISA_FUNCTIONAL_CORE_HH
