#include "branch_predictor.hh"

#include "common/intmath.hh"
#include "common/logging.hh"

namespace sciq {

HybridBranchPredictor::HybridBranchPredictor(const BranchPredictorParams &p)
    : params(p), statsGroup("bpred")
{
    SCIQ_ASSERT(isPowerOf2(p.globalPhtEntries) &&
                    isPowerOf2(p.localPhtEntries) &&
                    isPowerOf2(p.choicePhtEntries) &&
                    isPowerOf2(p.localHistoryRegs),
                "predictor table sizes must be powers of two");

    historyMask = (1u << params.globalHistoryBits) - 1;
    globalPht.assign(params.globalPhtEntries, SatCounter(2, 1));
    localHistories.assign(params.localHistoryRegs, 0);
    localPht.assign(params.localPhtEntries, SatCounter(2, 1));
    choicePht.assign(params.choicePhtEntries, SatCounter(2, 1));

    statsGroup.addScalar("lookups", &lookups, "total predictions");
    statsGroup.addScalar("cond_predicts", &condPredicts,
                         "conditional branches predicted");
    statsGroup.addScalar("cond_mispredicts", &condMispredicts,
                         "conditional branches mispredicted");
    statsGroup.addScalar("choice_global", &choiceGlobal,
                         "predictions taken from the global component");
}

std::size_t
HybridBranchPredictor::globalIndex(std::uint32_t history) const
{
    return history & (params.globalPhtEntries - 1);
}

std::size_t
HybridBranchPredictor::localRegIndex(Addr pc) const
{
    return (pc >> 2) & (params.localHistoryRegs - 1);
}

std::size_t
HybridBranchPredictor::choiceIndex(std::uint32_t history) const
{
    return history & (params.choicePhtEntries - 1);
}

bool
HybridBranchPredictor::predict(Addr pc)
{
    lookups.inc();
    condPredicts.inc();

    const std::uint32_t hist = globalHistory;
    const bool global_pred = globalPht[globalIndex(hist)].isSet();

    const std::uint32_t lhist =
        localHistories[localRegIndex(pc)] & ((1u << params.localHistoryBits) - 1);
    const bool local_pred =
        localPht[lhist & (params.localPhtEntries - 1)].isSet();

    const bool use_global = choicePht[choiceIndex(hist)].isSet();
    if (use_global)
        choiceGlobal.inc();

    const bool pred = use_global ? global_pred : local_pred;

    // Speculative global-history update; squashes restore via snapshot.
    globalHistory = ((globalHistory << 1) | (pred ? 1 : 0)) & historyMask;
    return pred;
}

void
HybridBranchPredictor::update(Addr pc, bool taken,
                              HistorySnapshot history_at_predict)
{
    const std::uint32_t hist = history_at_predict;

    SatCounter &gctr = globalPht[globalIndex(hist)];
    const bool global_pred = gctr.isSet();

    const std::size_t lreg = localRegIndex(pc);
    const std::uint32_t lhist =
        localHistories[lreg] & ((1u << params.localHistoryBits) - 1);
    SatCounter &lctr = localPht[lhist & (params.localPhtEntries - 1)];
    const bool local_pred = lctr.isSet();

    // Train the chooser toward whichever component was right.
    SatCounter &cctr = choicePht[choiceIndex(hist)];
    if (global_pred != local_pred) {
        if (global_pred == taken)
            cctr.increment();
        else
            cctr.decrement();
    }

    if (taken) {
        gctr.increment();
        lctr.increment();
    } else {
        gctr.decrement();
        lctr.decrement();
    }

    localHistories[lreg] = ((localHistories[lreg] << 1) | (taken ? 1 : 0)) &
                           ((1u << params.localHistoryBits) - 1);
}

void
HybridBranchPredictor::warmTrain(Addr pc, bool taken)
{
    lookups.inc();
    condPredicts.inc();

    const std::uint32_t hist = globalHistory;
    SatCounter &gctr = globalPht[globalIndex(hist)];
    const bool global_pred = gctr.isSet();

    const std::size_t lreg = localRegIndex(pc);
    const std::uint32_t lmask = (1u << params.localHistoryBits) - 1;
    const std::uint32_t lhist = localHistories[lreg] & lmask;
    SatCounter &lctr = localPht[lhist & (params.localPhtEntries - 1)];
    const bool local_pred = lctr.isSet();

    SatCounter &cctr = choicePht[choiceIndex(hist)];
    const bool use_global = cctr.isSet();
    if (use_global)
        choiceGlobal.inc();
    const bool pred = use_global ? global_pred : local_pred;

    // predict()'s speculative shift: the *prediction* enters the
    // global history (update() never rewrites it).
    globalHistory = ((hist << 1) | (pred ? 1 : 0)) & historyMask;

    if (global_pred != local_pred) {
        if (global_pred == taken)
            cctr.increment();
        else
            cctr.decrement();
    }
    if (taken) {
        gctr.increment();
        lctr.increment();
    } else {
        gctr.decrement();
        lctr.decrement();
    }
    localHistories[lreg] = ((localHistories[lreg] << 1) | (taken ? 1 : 0)) &
                           lmask;
}

HybridBranchPredictor::State
HybridBranchPredictor::capture() const
{
    return {globalHistory,
            globalPht,
            localHistories,
            localPht,
            choicePht,
            {lookups.value(), condPredicts.value(), condMispredicts.value(),
             choiceGlobal.value()}};
}

void
HybridBranchPredictor::adopt(const State &s)
{
    SCIQ_ASSERT(s.globalPht.size() == globalPht.size() &&
                    s.localHistories.size() == localHistories.size() &&
                    s.localPht.size() == localPht.size() &&
                    s.choicePht.size() == choicePht.size(),
                "branch predictor warm state of another geometry");
    globalHistory = s.globalHistory;
    globalPht = s.globalPht;
    localHistories = s.localHistories;
    localPht = s.localPht;
    choicePht = s.choicePht;
    lookups.set(s.counters[0]);
    condPredicts.set(s.counters[1]);
    condMispredicts.set(s.counters[2]);
    choiceGlobal.set(s.counters[3]);
}

} // namespace sciq
