#include "fast_forward.hh"

#include <algorithm>

namespace sciq {

namespace {

/**
 * Functional warming for one retired instruction: train the timing
 * core's caches and predictors exactly as the original step()-based
 * loop did.  Shared by the block-dispatch fast path and the
 * step()-based reference so the warmed state is bit-identical.
 */
struct WarmTrainer
{
    FastForwardStats &stats;
    Cache &dcache;
    Cache &l2;
    HybridBranchPredictor &bp;
    HitMissPredictor &hmp;
    Btb &btb;

    /**
     * Line of the previous mem access, proven resident in both the
     * dcache and the L2 (their own warm memos equal it after every
     * train, and only warm calls mutate them during a fast-forward).
     * A repeat access can therefore skip both cache calls outright;
     * state-identical because both would take their memo fast path.
     */
    static constexpr Addr kNoLine = ~0ULL;
    Addr lastLine = kNoLine;
    Addr lineMask;

    void
    train(std::uint8_t flags, Addr pc, const ExecResult &res)
    {
        if ((flags & (kBbMem | kBbCondBranch | kBbIndirect)) == 0)
            [[likely]] {
            return;
        }

        if (flags & kBbMem) {
            ++stats.memAccessesWarmed;
            const Addr line = res.effAddr & lineMask;
            if (line == lastLine) {
                // Same line as the previous access: resident in L1 and
                // L2 by the memo invariant; only the HMP still trains.
                if (flags & kBbLoad)
                    hmp.update(pc, true);
            } else {
                // Train the hit/miss predictor on loads with the
                // pre-touch residency, then install the line (L1
                // evictions fall back to the L2 just as timed fills
                // would).  warmAccess fuses the residency probe and
                // the insert into one set scan; the resulting state is
                // identical to the separate calls.
                const bool resident = dcache.warmAccess(res.effAddr);
                if (flags & kBbLoad)
                    hmp.update(pc, resident);
                l2.warmInsert(res.effAddr);
                lastLine = line;
            }
        }

        if (flags & kBbCondBranch) {
            ++stats.branchesWarmed;
            // Fused snapshot/predict/update (bit-identical; see
            // HybridBranchPredictor::warmTrain).
            bp.warmTrain(pc, res.taken);
        } else if (flags & kBbIndirect) {
            btb.update(pc, res.nextPc);
        }
    }
};

std::uint8_t
classifyForWarm(const Instruction &inst)
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
    return f;
}

} // namespace

FastForwardStats
fastForwardUnseeded(FunctionalCore &golden, OooCore &core,
                    std::uint64_t insts)
{
    FastForwardStats stats;
    Cache &dcache = core.memHierarchy().dcache();
    Cache &l2 = core.memHierarchy().l2cache();
    WarmTrainer trainer{stats,
                        dcache,
                        l2,
                        core.branchPredictor(),
                        core.hitMissPredictor(),
                        core.btb(),
                        WarmTrainer::kNoLine,
                        // Same-line test at the smaller of the two line
                        // sizes, so a match implies a match in both.
                        ~static_cast<Addr>(
                            std::min(dcache.lineBytes(), l2.lineBytes()) -
                            1)};

    if (golden.blockCacheEnabled()) {
        // Block-at-a-time dispatch; predictor/cache training stays
        // per-instruction through the hook (bit-identity of the warmed
        // state is non-negotiable), only the fetch/decode/introspection
        // overhead is amortized per block.  The HALT instruction, when
        // hit, is trained by neither path (it is neither mem nor
        // branch) and is excluded from instsSkipped below, matching
        // the step() loop's early break.
        const std::uint64_t ran = golden.runBlocks(
            insts, [&](const BbOp &op, Addr pc, const ExecResult &res) {
                trainer.train(op.flags, pc, res);
            });
        stats.hitHalt = golden.halted();
        stats.instsSkipped = ran - (stats.hitHalt ? 1 : 0);
    } else {
        // step()-based reference path (a core built without the
        // block cache; the tests compare the two).
        for (std::uint64_t i = 0; i < insts && !golden.halted(); ++i) {
            if (!golden.step())
                break;
            ++stats.instsSkipped;
            const Instruction *inst = golden.lastInst();
            trainer.train(classifyForWarm(*inst), golden.lastPc(),
                          golden.lastResult());
        }
        stats.hitHalt = golden.halted();
    }
    return stats;
}

FastForwardStats
fastForward(FunctionalCore &golden, OooCore &core, std::uint64_t insts)
{
    const FastForwardStats stats = fastForwardUnseeded(golden, core, insts);
    if (!stats.hitHalt)
        core.seedState(golden.regFile(), golden.memory(), golden.pc());
    return stats;
}

} // namespace sciq
