/**
 * @file
 * Michaud & Seznec-style prescheduling instruction queue, the paper's
 * main quantitative comparison point (section 6.3).
 *
 * Instructions are placed at dispatch into a *scheduling array* line
 * chosen by their predicted ready time (a quasi-static schedule built
 * from predicted operation latencies; loads are predicted to hit).
 * The array shifts one line per cycle into a small fully-associative
 * issue buffer, and instructions issue from the issue buffer only.
 * Latency mispredictions cannot reflow the array - instructions that
 * arrive early simply sit in the issue buffer, which is the weakness
 * the segmented IQ addresses.
 */

#ifndef SCIQ_IQ_PRESCHEDULED_IQ_HH
#define SCIQ_IQ_PRESCHEDULED_IQ_HH

#include <array>
#include <vector>

#include "common/circular_queue.hh"
#include "iq/iq_base.hh"

namespace sciq {

class PrescheduledIq : public IqBase
{
  public:
    PrescheduledIq(const IqParams &params, const Scoreboard &scoreboard,
                   const FuPool &fu);

    /**
     * ConfigError naming the keys unless the scheduling array (size
     * minus issue buffer) is a non-empty whole number of lines.
     */
    static void checkGeometry(const IqParams &params);

    bool tryInsert(const DynInstPtr &inst, Cycle cycle) override;
    void issueSelect(Cycle cycle, const TryIssue &try_issue) override;
    void tick(Cycle cycle, bool core_busy) override;
    void onCommit(const DynInstPtr &inst) override;
    void onSquashInst(const DynInstPtr &inst) override;
    void squash(SeqNum youngest_kept) override;
    std::size_t occupancy() const override;

    /** Like the segmented IQ, prescheduling adds a dispatch stage. */
    unsigned extraDispatchCycles() const override { return 1; }

    unsigned numLines() const { return static_cast<unsigned>(lines.size()); }
    std::size_t issueBufferOccupancy() const { return issueBuffer.size(); }

    /** Test/debug view: the scheduling-array line holding `inst`, or
     *  -1 once it has left the array (issue buffer, issued, squashed). */
    int
    debugLine(const DynInstPtr &inst) const
    {
        return holderOf(lines, inst);
    }

    stats::Scalar arrayStallCycles;   ///< shifts blocked by a full buffer
    stats::Average issueBufferOcc;

  private:
    struct Undo
    {
        SeqNum seq;
        RegIndex archDst;
        std::uint64_t prevReady;
    };

    /**
     * Predicted scheduling-array line for this instruction.
     *
     * Ready times are tracked in *shift counts* rather than absolute
     * cycles: when the array stalls (full issue buffer), everything in
     * it slips together, so shift-based predictions keep dependents
     * behind their producers and the array free of priority
     * inversions (which would deadlock the issue buffer).
     */
    unsigned predictedDelay(const DynInst &inst) const;

    unsigned predictedLatency(const DynInst &inst) const;

    /** First line index at or after `want` with a free slot, or -1. */
    int findLine(unsigned want) const;

    /** [0] = oldest line; a shifted-out line's buffer becomes the
     *  newest line, so lines keep their storage. */
    CircularQueue<std::vector<DynInstPtr>> lines;
    std::vector<DynInstPtr> issueBuffer;        ///< seq-sorted

    /** Predicted ready time per architectural register, in shifts. */
    std::array<std::uint64_t, kNumArchRegs> regReadyShift{};

    /** Total successful array shifts so far. */
    std::uint64_t shiftCount = 0;

    CircularQueue<Undo> undoLog;
};

} // namespace sciq

#endif // SCIQ_IQ_PRESCHEDULED_IQ_HH
