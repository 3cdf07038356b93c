/**
 * @file
 * Runtime basic-block cache for the functional interpreter.
 *
 * The step()-based functional path pays a Program::fetch bounds check,
 * an opcode-class classification and several virtual ExecContext calls
 * for every instruction.  Warming runs execute the same few loop bodies
 * hundreds of millions of times, so this cache discovers basic blocks
 * on first execution (walk from an entry PC to the next control-flow
 * instruction), flattens each into a trace of by-value instruction
 * copies with pre-classified kind flags, and lets the
 * interpreter replay whole blocks through a devirtualized execute path
 * (FunctionalCore::runBlocks).  Blocks chain through inline-cached
 * successor pointers (fall-through / taken / last-indirect-target), so
 * steady-state loops never touch the per-instruction fetch lookup.
 *
 * The cache is pure acceleration state: it holds no architectural
 * state, is never part of a warm state, and a block is a pure function of the
 * (immutable) program, so discovery order cannot affect results.
 * DESIGN.md §14 describes the contract; tests/test_bb_cache.cc pins
 * bit-identity against the step()-based reference.
 */

#ifndef SCIQ_ISA_BB_CACHE_HH
#define SCIQ_ISA_BB_CACHE_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "isa/instruction.hh"
#include "isa/program.hh"

namespace sciq {

/** Pre-classified kind flags for one cached micro-op. */
enum BbFlags : std::uint8_t
{
    kBbMem = 1u << 0,
    kBbLoad = 1u << 1,
    kBbCondBranch = 1u << 2,
    kBbIndirect = 1u << 3,
    kBbControl = 1u << 4,
    kBbHalt = 1u << 5,
};

/**
 * One flattened micro-op.  The instruction is copied *by value* so the
 * replay loop streams the trace sequentially instead of chasing a
 * pointer into Program::code for every op (the dependent load showed
 * up as the single largest cost in the warming profile).  The op's PC
 * is not stored: it is `block.startPc + i * kInstBytes` by
 * construction.  `src` is the canonical program instruction, kept only
 * for lastInst() introspection.
 */
struct BbOp
{
    Instruction inst;
    const Instruction *src;
    std::uint8_t flags;
};

/**
 * A discovered basic block: the ops from its entry PC up to and
 * including the first control-flow (or HALT) instruction, plus
 * inline-cached successor links filled in as control flow resolves.
 */
struct BasicBlock
{
    Addr startPc = 0;
    std::vector<BbOp> ops;

    /** Fall-through / not-taken successor (startPc of next op). */
    BasicBlock *seqNext = nullptr;
    /** Taken successor of a direct branch/jump (target is static). */
    BasicBlock *takenNext = nullptr;
    /** One-entry inline cache for register-indirect targets. */
    Addr indirectPc = 0;
    BasicBlock *indirectNext = nullptr;

    const BbOp &terminator() const { return ops.back(); }
};

class BbCache
{
  public:
    /**
     * Discovery stops after this many ops even without control flow,
     * bounding block size; correctness is unaffected because the
     * replay loop re-enters through lookup() at the cut PC.
     */
    static constexpr std::size_t kMaxBlockOps = 1024;

    explicit BbCache(const Program &prog) : program(prog) {}

    BbCache(const BbCache &) = delete;
    BbCache &operator=(const BbCache &) = delete;

    /**
     * The block starting at `pc`, discovering it on first use.
     * Returns nullptr when `pc` addresses no instruction of the
     * program (the caller reproduces the step()-path panic).
     */
    BasicBlock *
    lookup(Addr pc)
    {
        auto it = blocks.find(pc);
        if (it != blocks.end()) [[likely]] {
            ++traceHits_;
            return it->second.get();
        }
        return discover(pc);
    }

    /**
     * Successor of `bb` given its terminator's resolved next PC,
     * through the inline caches.  `taken` is the terminator's branch
     * outcome (always true for jumps, false for a non-control
     * terminator cut by kMaxBlockOps).
     */
    BasicBlock *
    successor(BasicBlock *bb, Addr next_pc, bool taken)
    {
        if (bb->terminator().flags & kBbIndirect) {
            if (bb->indirectNext && bb->indirectPc == next_pc)
                [[likely]] {
                ++succHits_;
                return bb->indirectNext;
            }
            bb->indirectNext = lookup(next_pc);
            bb->indirectPc = next_pc;
            return bb->indirectNext;
        }
        BasicBlock *&slot = taken ? bb->takenNext : bb->seqNext;
        if (slot) [[likely]] {
            ++succHits_;
            return slot;
        }
        slot = lookup(next_pc);
        return slot;
    }

    // Accounting (host-side observability; never architectural).
    std::uint64_t blocksDiscovered() const { return blocksDiscovered_; }
    std::uint64_t opsCached() const { return opsCached_; }
    std::uint64_t traceHits() const { return traceHits_; }
    std::uint64_t succHits() const { return succHits_; }

  private:
    static std::uint8_t
    classify(const Instruction &inst)
    {
        std::uint8_t f = 0;
        if (inst.isMem())
            f |= kBbMem;
        if (inst.isLoad())
            f |= kBbLoad;
        if (inst.isCondBranch())
            f |= kBbCondBranch;
        if (inst.isIndirect())
            f |= kBbIndirect;
        if (inst.isControl())
            f |= kBbControl;
        if (inst.isHalt())
            f |= kBbHalt;
        return f;
    }

    BasicBlock *discover(Addr pc);

    const Program &program;
    std::unordered_map<Addr, std::unique_ptr<BasicBlock>> blocks;

    std::uint64_t blocksDiscovered_ = 0;
    std::uint64_t opsCached_ = 0;
    std::uint64_t traceHits_ = 0;
    std::uint64_t succHits_ = 0;
};

} // namespace sciq

#endif // SCIQ_ISA_BB_CACHE_HH
