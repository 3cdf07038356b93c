/**
 * @file
 * Hybrid local/global branch predictor a la the Alpha 21264, with the
 * geometry of Table 1:
 *   global: 13-bit history register, 8K-entry PHT
 *   local:  2K 11-bit history registers, 2K-entry PHT
 *   choice: 13-bit global history register, 8K-entry PHT
 *
 * The global history is updated speculatively at prediction time and
 * restored from a snapshot when a branch squashes; local histories and
 * all counter tables train at commit.
 */

#ifndef SCIQ_BRANCH_BRANCH_PREDICTOR_HH
#define SCIQ_BRANCH_BRANCH_PREDICTOR_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/sat_counter.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace sciq {

struct BranchPredictorParams
{
    unsigned globalHistoryBits = 13;
    unsigned globalPhtEntries = 8192;
    unsigned localHistoryRegs = 2048;
    unsigned localHistoryBits = 11;
    unsigned localPhtEntries = 2048;
    unsigned choicePhtEntries = 8192;
};

class HybridBranchPredictor
{
  public:
    /** Opaque speculative-history snapshot for squash recovery. */
    using HistorySnapshot = std::uint32_t;

    explicit HybridBranchPredictor(const BranchPredictorParams &p = {});

    /**
     * Predict a conditional branch at `pc` and speculatively shift the
     * prediction into the global history.
     */
    bool predict(Addr pc);

    /** Snapshot the speculative global history (before predict()). */
    HistorySnapshot snapshot() const { return globalHistory; }

    /** Restore the speculative global history after a squash. */
    void restore(HistorySnapshot snap) { globalHistory = snap; }

    /** Shift a now-known outcome into the speculative history. */
    void
    pushSpecHistory(bool taken)
    {
        globalHistory =
            ((globalHistory << 1) | (taken ? 1 : 0)) & historyMask;
    }

    /**
     * Train at commit with the architecturally-correct outcome.
     * `commit_history` is the global history as it was when the branch
     * predicted (i.e. its snapshot), used to index the tables the same
     * way predict() did.
     */
    void update(Addr pc, bool taken, HistorySnapshot history_at_predict);

    /**
     * Functional-warming fast path: bit-identical to
     *   snap = snapshot(); predict(pc); update(pc, taken, snap);
     * (tables, histories and statistics counters all included) but
     * reads each table once instead of twice.  The predicted — not the
     * actual — outcome shifts into the speculative global history,
     * exactly as the sequence above leaves it.
     */
    void warmTrain(Addr pc, bool taken);

    /**
     * The warm state: the history registers, all three counter tables
     * and the four statistics counters, in declaration order (warm-up
     * trains the tables *and* counts lookups, so both must carry over
     * for stat bit-identity).
     */
    struct State
    {
        std::uint32_t globalHistory = 0;
        std::vector<SatCounter> globalPht;
        std::vector<std::uint32_t> localHistories;
        std::vector<SatCounter> localPht;
        std::vector<SatCounter> choicePht;
        std::array<double, 4> counters{};

        bool operator==(const State &) const = default;
    };

    State capture() const;

    /** Replace the warm state with `s`, of the same table geometry. */
    void adopt(const State &s);

    stats::Group &statGroup() { return statsGroup; }

    stats::Scalar lookups;
    stats::Scalar condPredicts;
    stats::Scalar condMispredicts;
    stats::Scalar choiceGlobal;  ///< times the chooser picked global

  private:
    std::size_t globalIndex(std::uint32_t history) const;
    std::size_t localRegIndex(Addr pc) const;
    std::size_t choiceIndex(std::uint32_t history) const;

    BranchPredictorParams params;
    stats::Group statsGroup;

    std::uint32_t globalHistory = 0;
    std::uint32_t historyMask;

    std::vector<SatCounter> globalPht;
    std::vector<std::uint32_t> localHistories;
    std::vector<SatCounter> localPht;
    std::vector<SatCounter> choicePht;
};

} // namespace sciq

#endif // SCIQ_BRANCH_BRANCH_PREDICTOR_HH
