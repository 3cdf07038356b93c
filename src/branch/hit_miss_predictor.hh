/**
 * @file
 * Dynamic cache hit/miss predictor (paper section 4.4): a PC-indexed
 * table of 4-bit saturating counters.  A counter is incremented on a
 * hit, cleared on a miss, and a *hit* is predicted only when the
 * counter exceeds 13 — very high confidence, because predicting a miss
 * as a hit floods segment 0 with unready instructions.
 */

#ifndef SCIQ_BRANCH_HIT_MISS_PREDICTOR_HH
#define SCIQ_BRANCH_HIT_MISS_PREDICTOR_HH

#include <array>
#include <limits>
#include <vector>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "common/sat_counter.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace sciq {

class HitMissPredictor
{
  public:
    explicit HitMissPredictor(unsigned entries = 4096,
                              unsigned threshold_ = 13)
        : threshold(threshold_), statsGroup("hmp"),
          table(entries, SatCounter(4, 0))
    {
        SCIQ_ASSERT(isPowerOf2(entries), "HMP size must be pow2");
        statsGroup.addScalar("predict_hit", &predictHitCount,
                             "loads predicted to hit");
        statsGroup.addScalar("predict_miss", &predictMissCount,
                             "loads predicted to miss");
        statsGroup.addScalar("hit_predicts_correct", &hitPredictsCorrect,
                             "predicted-hit loads that actually hit");
        statsGroup.addScalar("actual_hits", &actualHits,
                             "loads that actually hit in the L1");
    }

    /** Prediction without statistics side effects: the segmented IQ
     *  plans a dispatch with it and counts the read only on admission. */
    bool
    peekHit(Addr pc) const
    {
        return table[index(pc)].read() > threshold;
    }

    /** True if the load at `pc` is predicted to hit in the L1. */
    bool
    predictHit(Addr pc)
    {
        bool hit = table[index(pc)].read() > threshold;
        if (hit)
            predictHitCount.inc();
        else
            predictMissCount.inc();
        return hit;
    }

    /** Train with the actual outcome (delayed hits count as misses). */
    void
    update(Addr pc, bool was_hit)
    {
        if (was_hit)
            table[index(pc)].increment();
        else
            table[index(pc)].reset();
    }

    /** Record accuracy bookkeeping for the text-statistics bench. */
    void
    recordOutcome(bool predicted_hit, bool was_hit)
    {
        if (was_hit)
            actualHits.inc();
        if (predicted_hit && was_hit)
            hitPredictsCorrect.inc();
    }

    /**
     * Fraction of hit-predictions that were correct (paper: >98%).
     * NaN when nothing was predicted - a run with no HMP-eligible
     * loads has no accuracy, and reporting 1.0 would silently skew
     * cross-workload averages.  JSON emitters serialise it as null.
     */
    double
    hitAccuracy() const
    {
        double p = predictHitCount.value();
        return p > 0 ? hitPredictsCorrect.value() / p
                     : std::numeric_limits<double>::quiet_NaN();
    }

    /** Fraction of actual hits that were predicted as hits (~83%). */
    double
    hitCoverage() const
    {
        double h = actualHits.value();
        return h > 0 ? hitPredictsCorrect.value() / h
                     : std::numeric_limits<double>::quiet_NaN();
    }

    /**
     * The warm state: the counter table and the four statistics
     * counters, in declaration order.
     */
    struct State
    {
        std::vector<SatCounter> table;
        std::array<double, 4> counters{};

        bool operator==(const State &) const = default;
    };

    State
    capture() const
    {
        return {table,
                {predictHitCount.value(), predictMissCount.value(),
                 hitPredictsCorrect.value(), actualHits.value()}};
    }

    /** Replace the warm state with `s`, of the same table size. */
    void
    adopt(const State &s)
    {
        SCIQ_ASSERT(s.table.size() == table.size(),
                    "HMP warm state of %zu entries, configured %zu",
                    s.table.size(), table.size());
        table = s.table;
        predictHitCount.set(s.counters[0]);
        predictMissCount.set(s.counters[1]);
        hitPredictsCorrect.set(s.counters[2]);
        actualHits.set(s.counters[3]);
    }

    stats::Group &statGroup() { return statsGroup; }

    stats::Scalar predictHitCount;
    stats::Scalar predictMissCount;
    stats::Scalar hitPredictsCorrect;
    stats::Scalar actualHits;

  private:
    std::size_t index(Addr pc) const
    {
        return (pc >> 2) & (table.size() - 1);
    }

    unsigned threshold;
    stats::Group statsGroup;
    std::vector<SatCounter> table;
};

} // namespace sciq

#endif // SCIQ_BRANCH_HIT_MISS_PREDICTOR_HH
