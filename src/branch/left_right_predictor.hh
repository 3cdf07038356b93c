/**
 * @file
 * Left/right operand predictor (paper section 4.3): a PC-indexed table
 * of 2-bit saturating counters predicting which of a two-source
 * instruction's operands will arrive *later* (the critical one).  The
 * instruction then follows only that operand's chain, halving per-entry
 * chain-tracking hardware and saving chain allocations.
 */

#ifndef SCIQ_BRANCH_LEFT_RIGHT_PREDICTOR_HH
#define SCIQ_BRANCH_LEFT_RIGHT_PREDICTOR_HH

#include <array>
#include <vector>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "common/sat_counter.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace sciq {

class LeftRightPredictor
{
  public:
    explicit LeftRightPredictor(unsigned entries = 4096)
        : statsGroup("lrp"), table(entries, SatCounter(2, 1))
    {
        SCIQ_ASSERT(isPowerOf2(entries), "LRP size must be pow2");
        statsGroup.addScalar("predicts", &predicts, "LRP lookups");
        statsGroup.addScalar("mispredicts", &mispredicts,
                             "times the other operand arrived later");
    }

    /** Prediction without statistics side effects: the segmented IQ
     *  plans a dispatch with it and counts the read only on admission. */
    bool
    peekLeftCritical(Addr pc) const
    {
        return table[index(pc)].isSet();
    }

    /** True = the LEFT (first) operand is predicted critical (later). */
    bool
    predictLeftCritical(Addr pc)
    {
        predicts.inc();
        return table[index(pc)].isSet();
    }

    /** Train with which operand actually arrived later. */
    void
    update(Addr pc, bool left_was_later)
    {
        if (left_was_later)
            table[index(pc)].increment();
        else
            table[index(pc)].decrement();
    }

    /**
     * The warm state: the counter table and the two statistics
     * counters (predicts, mispredicts).
     */
    struct State
    {
        std::vector<SatCounter> table;
        std::array<double, 2> counters{};

        bool operator==(const State &) const = default;
    };

    State
    capture() const
    {
        return {table, {predicts.value(), mispredicts.value()}};
    }

    /** Replace the warm state with `s`, of the same table size. */
    void
    adopt(const State &s)
    {
        SCIQ_ASSERT(s.table.size() == table.size(),
                    "LRP warm state of %zu entries, configured %zu",
                    s.table.size(), table.size());
        table = s.table;
        predicts.set(s.counters[0]);
        mispredicts.set(s.counters[1]);
    }

    stats::Group &statGroup() { return statsGroup; }

    stats::Scalar predicts;
    stats::Scalar mispredicts;

  private:
    std::size_t index(Addr pc) const
    {
        return (pc >> 2) & (table.size() - 1);
    }

    stats::Group statsGroup;
    std::vector<SatCounter> table;
};

} // namespace sciq

#endif // SCIQ_BRANCH_LEFT_RIGHT_PREDICTOR_HH
