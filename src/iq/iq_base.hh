/**
 * @file
 * Common interface for the four instruction-queue designs compared in
 * the paper: the ideal monolithic IQ, our segmented dependence-chain
 * IQ, Michaud/Seznec prescheduling, and Palacharla-style FIFOs.
 */

#ifndef SCIQ_IQ_IQ_BASE_HH
#define SCIQ_IQ_IQ_BASE_HH

#include <array>
#include <functional>
#include <iosfwd>

#include "common/stats.hh"
#include "core/dyn_inst.hh"
#include "core/fu_pool.hh"
#include "core/rename.hh"

namespace sciq {

class HitMissPredictor;
class LeftRightPredictor;

/** Parameters shared by (and specific to) the IQ designs. */
struct IqParams
{
    unsigned numEntries = 512;
    unsigned issueWidth = 8;

    // Segmented IQ (paper sections 3-4).
    unsigned segmentSize = 32;
    int maxChains = -1;            ///< -1 = unlimited chain wires
    bool useHmp = false;           ///< hit/miss predictor (4.4)
    bool useLrp = false;           ///< left/right operand predictor (4.3)
    bool enablePushdown = true;    ///< full-segment pushdown (4.1)
    bool enableBypass = true;      ///< empty-segment dispatch bypass (4.2)
    unsigned predictedLoadLatency = 4;  ///< agen issue -> dependent ready

    /**
     * ROB capacity, which bounds how far apart in dispatch order two
     * resident entries can be (the segmented IQ's SoA engine numbers
     * its slots by dispatch position modulo this).  Set by the core
     * from its own ROB size; 0 means 3 x numEntries, the core default.
     */
    unsigned robSize = 0;

    /**
     * Dynamic segment resizing (paper section 7, future work): gate
     * whole segments off when occupancy is low, re-enabling them under
     * pressure.  Dispatch is confined to the active segments; the
     * energy proxy statistics expose the gated fraction.
     */
    bool dynamicResize = false;
    unsigned resizeInterval = 256;       ///< cycles between decisions
    double resizeGrowOcc = 0.75;         ///< grow when occ/active above
    double resizeShrinkOcc = 0.40;       ///< shrink when occ/smaller below

    // Prescheduling IQ (Michaud & Seznec).
    unsigned preschedLineWidth = 12;
    unsigned issueBufferSize = 32;

    // FIFO IQ (Palacharla et al.).
    unsigned numFifos = 16;
    unsigned fifoDepth = 32;

    /**
     * Test-only fault injection: let promotion ignore the previous-cycle
     * free-entry bound (section 3.1) so the invariant auditor's negative
     * tests can prove a broken bound is caught.  Never set in real runs.
     */
    bool auditInjectOverPromote = false;
};

class IqBase
{
  public:
    /**
     * Issue acceptor supplied by the core: returns true (and starts
     * execution) if a function unit is available for the instruction.
     */
    using TryIssue = std::function<bool(const DynInstPtr &)>;

    IqBase(const IqParams &params, const Scoreboard &scoreboard,
           const FuPool &fu, const std::string &stat_name);
    virtual ~IqBase() = default;

    IqBase(const IqBase &) = delete;
    IqBase &operator=(const IqBase &) = delete;

    /**
     * Dispatch one instruction, or refuse it (a dispatch stall) and
     * leave the queue as it was apart from the design's stall counters.
     * The one admission decision of the dispatch stage: the core calls
     * it once per instruction after renaming its sources and before
     * allocating its destination, so a design may read `physSrc` but
     * not `physDst` or the destination's scoreboard bit.
     */
    virtual bool tryInsert(const DynInstPtr &inst, Cycle cycle) = 0;

    /**
     * Select up to issueWidth ready instructions (oldest first),
     * offering each to `try_issue`; rejected instructions stay queued.
     */
    virtual void issueSelect(Cycle cycle, const TryIssue &try_issue) = 0;

    /**
     * Per-cycle bookkeeping run *after* the issue stage: segment
     * promotion, scheduling-array shifting, deadlock detection.
     * @param core_busy true if any instruction is executing or any
     *        memory access is in flight (deadlock detection input).
     */
    virtual void tick(Cycle cycle, bool core_busy) = 0;

    /** A load's L1 lookup missed: suspend its chain (segmented only). */
    virtual void onLoadMiss(const DynInstPtr &, Cycle) {}

    /** A load's data returned: resume its chain (segmented only). */
    virtual void onLoadComplete(const DynInstPtr &, Cycle) {}

    /** An instruction wrote back: chains may be deallocated. */
    virtual void onWriteback(const DynInstPtr &, Cycle) {}

    /**
     * A physical register just became ready in the scoreboard (load
     * completion, writeback, or squash undo).  Designs that keep a
     * ready-event index use it to wake waiters instead of re-polling
     * operands every cycle.
     */
    virtual void onRegReady(RegIndex) {}

    /** An instruction committed: recovery logs may be pruned. */
    virtual void onCommit(const DynInstPtr &) {}

    /**
     * Called youngest-first for every squashed instruction (whether it
     * is still queued, executing, or already completed), before the
     * bulk squash() call.  Designs use it to undo per-instruction
     * dispatch side effects (table entries, chain allocations).
     */
    virtual void onSquashInst(const DynInstPtr &) {}

    /** Remove every instruction younger than `youngest_kept`. */
    virtual void squash(SeqNum youngest_kept) = 0;

    virtual std::size_t occupancy() const = 0;
    virtual bool empty() const { return occupancy() == 0; }

    /**
     * Append a human-readable dump of internal scheduler state to `os`
     * (the watchdog embeds it in DeadlockError diagnostics).  The base
     * implementation prints nothing; designs with interesting state
     * (per-segment chains) override.
     */
    virtual void dumpState(std::ostream &) const {}

    /** Extra dispatch pipeline stages this design needs (paper: 1). */
    virtual unsigned extraDispatchCycles() const { return 0; }

    /**
     * Enable the per-cycle bookkeeping the invariant auditor reads
     * (promotion counts, free-entry snapshots).  A no-op for designs
     * with nothing to track.
     */
    virtual void setAuditTracking(bool) {}

    /**
     * Of an instruction's source pair (architectural or physical), the
     * ones that gate the IQ.  Stores wait only on their address operand
     * in the queue; store data is checked by the LSQ (paper section 5).
     */
    static std::array<RegIndex, 2>
    gatingSources(std::array<RegIndex, 2> srcs, bool is_store)
    {
        if (is_store)
            srcs[1] = kInvalidReg;
        return srcs;
    }

    /** The physical source registers that gate IQ issue. */
    static std::array<RegIndex, 2>
    iqSources(const DynInst &inst)
    {
        return gatingSources(inst.physSrc, inst.isStore());
    }

    /** All IQ-gating sources ready per the scoreboard? */
    bool
    operandsReady(const DynInst &inst) const
    {
        auto s = iqSources(inst);
        return scoreboard.isReady(s[0]) && scoreboard.isReady(s[1]);
    }

    stats::Group &statGroup() { return statsGroup; }

    // Common statistics.
    stats::Scalar instsInserted;
    stats::Scalar instsIssued;
    stats::Scalar dispatchStallsFull;
    stats::Average occupancyAvg;

  protected:
    /** Index of the queue in `queues` holding `inst`, or -1. */
    template <typename Queues>
    static int
    holderOf(const Queues &queues, const DynInstPtr &inst)
    {
        for (std::size_t q = 0; q < queues.size(); ++q) {
            for (std::size_t k = 0; k < queues[q].size(); ++k) {
                if (queues[q][k] == inst)
                    return static_cast<int>(q);
            }
        }
        return -1;
    }

    IqParams params;
    const Scoreboard &scoreboard;
    const FuPool &fu;
    stats::Group statsGroup;
};

} // namespace sciq

#endif // SCIQ_IQ_IQ_BASE_HH
