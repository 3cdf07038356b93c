/**
 * @file
 * Palacharla/Jouppi/Smith dependence-based FIFO instruction queue
 * (the original dependence-based design the paper's related-work
 * section builds on; included as an additional baseline).
 *
 * Dispatch steers each instruction behind a producer of one of its
 * operands if that producer is currently a FIFO tail; otherwise it
 * goes to an empty FIFO, and dispatch stalls if none exists.  Only the
 * FIFO heads are examined by wakeup/select.
 */

#ifndef SCIQ_IQ_FIFO_IQ_HH
#define SCIQ_IQ_FIFO_IQ_HH

#include <array>
#include <vector>

#include "common/circular_queue.hh"
#include "iq/iq_base.hh"

namespace sciq {

class FifoIq : public IqBase
{
  public:
    FifoIq(const IqParams &params, const Scoreboard &scoreboard,
           const FuPool &fu);

    bool tryInsert(const DynInstPtr &inst, Cycle cycle) override;
    void issueSelect(Cycle cycle, const TryIssue &try_issue) override;
    void tick(Cycle cycle, bool core_busy) override;
    void squash(SeqNum youngest_kept) override;
    std::size_t occupancy() const override;

    /** Test/debug view: the FIFO holding `inst`, or -1 if none does. */
    int
    debugFifo(const DynInstPtr &inst) const
    {
        return holderOf(fifos, inst);
    }

    stats::Scalar steeredBehindProducer;
    stats::Scalar steeredToEmpty;
    stats::Scalar noEmptyFifoStalls;

  private:
    /** FIFO the instruction should enter, or -1 to stall. */
    int steer(const DynInstPtr &inst) const;

    std::vector<CircularQueue<DynInstPtr>> fifos;
    std::size_t totalOcc = 0;  ///< sum of FIFO sizes, O(1) occupancy

    /** Issue-select scratch (reused; avoids per-cycle allocation). */
    std::vector<std::size_t> readyScratch;

    /** Most recent in-queue producer of each architectural register. */
    std::array<DynInstPtr, kNumArchRegs> producer;
};

} // namespace sciq

#endif // SCIQ_IQ_FIFO_IQ_HH
