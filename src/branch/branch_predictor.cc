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

void
HybridBranchPredictor::save(serial::Writer &w) const
{
    w.u32(globalHistory);
    saveCounters(w, globalPht);
    w.u64(localHistories.size());
    char *p = w.span(localHistories.size(), 4);
    for (std::uint32_t h : localHistories) {
        serial::storeLe(p, h);
        p += 4;
    }
    saveCounters(w, localPht);
    saveCounters(w, choicePht);
    w.f64(lookups.value());
    w.f64(condPredicts.value());
    w.f64(condMispredicts.value());
    w.f64(choiceGlobal.value());
}

void
HybridBranchPredictor::restore(serial::Reader &r)
{
    globalHistory = r.u32();
    restoreCounters(r, globalPht, "global PHT table size");
    r.expectCount(localHistories.size(), "local history count");
    const char *p = r.span(localHistories.size(), 4);
    for (std::uint32_t &h : localHistories) {
        h = serial::loadLe<std::uint32_t>(p);
        p += 4;
    }
    restoreCounters(r, localPht, "local PHT table size");
    restoreCounters(r, choicePht, "choice PHT table size");
    lookups.set(r.f64());
    condPredicts.set(r.f64());
    condMispredicts.set(r.f64());
    choiceGlobal.set(r.f64());
}

} // namespace sciq
