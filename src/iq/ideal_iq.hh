/**
 * @file
 * The idealised monolithic instruction queue: single-cycle wakeup and
 * select over the entire window, any size.  This is the paper's upper
 * bound ("ideal" curves in Figures 2 and 3); a real implementation of
 * this structure at 512 entries would not meet cycle time.
 *
 * Wakeup is event-driven (DESIGN.md section 11): entries with pending
 * operands register as waiters on the producing physical registers and
 * move to a seq-sorted ready list when the core reports the register
 * ready (onRegReady), so issue selection walks only ready entries
 * instead of polling every resident instruction's scoreboard bits each
 * cycle.  Scoreboard readiness is monotone while an instruction is
 * resident, which is what makes the ready set grow-only between
 * issues.
 */

#ifndef SCIQ_IQ_IDEAL_IQ_HH
#define SCIQ_IQ_IDEAL_IQ_HH

#include <vector>

#include "iq/iq_base.hh"

namespace sciq {

class IdealIq : public IqBase
{
  public:
    IdealIq(const IqParams &params, const Scoreboard &scoreboard,
            const FuPool &fu);

    bool tryInsert(const DynInstPtr &inst, Cycle cycle) override;
    void issueSelect(Cycle cycle, const TryIssue &try_issue) override;
    void tick(Cycle cycle, bool core_busy) override;
    void onRegReady(RegIndex r) override;
    void squash(SeqNum youngest_kept) override;
    std::size_t occupancy() const override { return live; }

  private:
    friend class Auditor;

    /** Append to the ready list, keeping it seq-sorted. */
    void pushReady(const DynInstPtr &inst);

    /** Drop the tombstones, renumbering the survivors' slots. */
    void compact();

    /**
     * Held in dispatch (= program) order, so the squashed set is a
     * suffix.  Issue leaves a null tombstone at the entry's slot
     * (`ideal.slot`) instead of shifting the tail; insert compacts once
     * tombstones could outnumber residents.
     */
    std::vector<DynInstPtr> insts;
    std::size_t live = 0;  ///< non-tombstone entries of insts

    /**
     * Resident instructions whose gating operands are all ready, in
     * seq order.  Issue selection walks only this list.
     */
    std::vector<DynInstPtr> readyList;

    /**
     * Per-physical-register waiter lists, FIFO, linked through one
     * node pool whose freed nodes are reused, so wakeup bookkeeping
     * never allocates once the pool has grown to the peak number of
     * waiters.  Entries hold strong refs (pinning the pool slot) but
     * are guarded by ideal.inQueue, so a squashed waiter is simply
     * dropped when its register fires; every cleared register is
     * eventually set ready (writeback or squash undo), so the lists
     * drain promptly.
     */
    static constexpr std::uint32_t kNoNode = ~0U;
    struct WaiterNode
    {
        DynInstPtr inst;
        std::uint32_t next = kNoNode;
    };
    struct WaitList
    {
        std::uint32_t head = kNoNode;
        std::uint32_t tail = kNoNode;
    };
    std::vector<WaitList> waiters;
    std::vector<WaiterNode> waiterNodes;
    std::uint32_t freeNodes = kNoNode;  ///< free-node chain head
};

} // namespace sciq

#endif // SCIQ_IQ_IDEAL_IQ_HH
