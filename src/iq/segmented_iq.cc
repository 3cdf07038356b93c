#include "segmented_iq.hh"

#include <algorithm>
#include <bit>
#include <chrono>

#include "branch/hit_miss_predictor.hh"
#include "branch/left_right_predictor.hh"
#include "common/errors.hh"
#include "common/logging.hh"

namespace sciq {

namespace {

/** Accumulate wall-clock into `acc` while in scope (profiling only). */
class ScopedTimer
{
  public:
    ScopedTimer(bool on, double &acc) : on_(on), acc_(acc)
    {
        if (on_)
            t0_ = std::chrono::steady_clock::now();
    }
    ~ScopedTimer()
    {
        if (on_) {
            acc_ += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0_)
                        .count();
        }
    }

  private:
    bool on_;
    double &acc_;
    std::chrono::steady_clock::time_point t0_;
};

/**
 * Visit the set bits of the bit vector `v` (`nwords` words) circularly
 * from bit `start` until `f(bit)` returns false; false if it did.
 */
template <class F>
bool
forEachBitFrom(const std::uint64_t *v, std::size_t nwords, std::size_t start,
               F f)
{
    const std::size_t s0 = start >> 6;
    const std::uint64_t from_start = ~0ULL << (start & 63);
    const auto scan = [&](std::size_t i, std::uint64_t keep) {
        for (std::uint64_t bits = v[i] & keep; bits; bits &= bits - 1) {
            if (!f(i * 64 + static_cast<std::size_t>(std::countr_zero(bits))))
                return false;
        }
        return true;
    };
    if (!scan(s0, from_start))
        return false;
    for (std::size_t i = s0 + 1; i < nwords; ++i) {
        if (!scan(i, ~0ULL))
            return false;
    }
    for (std::size_t i = 0; i < s0; ++i) {
        if (!scan(i, ~0ULL))
            return false;
    }
    return scan(s0, ~from_start);
}

} // namespace

static_assert(kNumArchRegs <= 64,
              "regAvail fast-plan mask assumes <= 64 architectural regs");

void
SegmentedIq::checkGeometry(const IqParams &p)
{
    if (p.numEntries % p.segmentSize != 0) {
        throw ConfigError("config keys 'iq_size' and 'seg_size': " +
                          std::to_string(p.numEntries) +
                          " entries is not a whole number of " +
                          std::to_string(p.segmentSize) +
                          "-entry segments");
    }
}

SegmentedIq::SegmentedIq(const IqParams &params_,
                         const Scoreboard &scoreboard_, const FuPool &fu_,
                         HitMissPredictor *hmp_, LeftRightPredictor *lrp_)
    : IqBase(params_, scoreboard_, fu_, "iq"),
      chains(params_.maxChains), hmp(hmp_), lrp(lrp_)
{
    checkGeometry(params);
    const unsigned n = params.numEntries / params.segmentSize;
    SCIQ_ASSERT(n >= 1, "need at least one segment");
    freePrevCycle.assign(n, params.segmentSize);
    if (params.maxChains > 0)
        chainStates.resize(static_cast<std::size_t>(params.maxChains));

    SCIQ_ASSERT(!params.useHmp || hmp != nullptr,
                "useHmp set but no hit/miss predictor supplied");
    SCIQ_ASSERT(!params.useLrp || lrp != nullptr,
                "useLrp set but no left/right predictor supplied");

    statsGroup.addScalar("chains_created", &chainsCreated,
                         "chain heads allocated");
    statsGroup.addScalar("heads_from_loads", &headsFromLoads,
                         "chains created for load instructions");
    statsGroup.addScalar("two_outstanding", &twoOutstanding,
                         "insts with two pending operands in diff chains");
    statsGroup.addScalar("chain_stalls", &chainStalls,
                         "dispatch stalls due to exhausted chain wires");
    statsGroup.addScalar("promotions", &promotions,
                         "segment-to-segment promotions");
    statsGroup.addScalar("pushdown_promotions", &pushdownPromotions,
                         "promotions forced by the pushdown mechanism");
    statsGroup.addScalar("deadlock_cycles", &deadlockCycles,
                         "cycles with the deadlock condition asserted");
    statsGroup.addScalar("deadlock_recoveries", &deadlockRecoveries,
                         "deadlock recovery actions performed");
    statsGroup.addAverage("chains_in_use", &chainsInUseAvg,
                          "chains allocated, sampled per cycle");
    statsGroup.addAverage("seg0_occupancy", &seg0Occupancy,
                          "instructions in segment 0 per cycle");
    statsGroup.addAverage("seg0_ready", &seg0Ready,
                          "ready instructions in segment 0 per cycle");
    statsGroup.addAverage("dispatch_segment", &dispatchSegment,
                          "segment instructions dispatch into (bypass)");
    statsGroup.addScalar("resize_grows", &resizeGrows,
                         "segments re-enabled by dynamic resizing");
    statsGroup.addScalar("resize_shrinks", &resizeShrinks,
                         "segments gated off by dynamic resizing");
    statsGroup.addScalar("segment_cycles_active", &segmentCyclesActive,
                         "sum over cycles of powered segments");
    statsGroup.addAverage("active_segments", &activeSegmentsAvg,
                          "powered segments per cycle");
    statsGroup.addScalar("log_peak", &logPeak,
                         "peak per-chain signal-log length");
    statsGroup.addScalar("dirty_segments", &dirtySegments,
                         "segments visited by the promotion pass");

    // With resizing off all segments are always powered; with it on we
    // start minimal and grow under dispatch pressure.
    activeSegments = params.dynamicResize ? 1 : n;

    regCdPos.fill(-1);
    regSubPos.fill(-1);
    regSubChain.fill(kNoChain);
    regDue.fill(kNotDue);

    chainHot.resize(chainStates.size());
    poolSize = params.robSize ? params.robSize : 3 * params.numEntries;
    SCIQ_ASSERT(poolSize < kFreeSlot && n < kFreeSlot,
                "ROB of %u entries exceeds the slot-pool id range", poolSize);
    poolWords = (poolSize + 63) / 64;
    summaryWords = (poolWords + 63) / 64;
    for (int m = 0; m < 2; ++m) {
        pool.delay[m].assign(poolSize, 0);
        pool.chain[m].assign(poolSize, kNoChain);
        pool.gen[m].assign(poolSize, 0);
        pool.applied[m].assign(poolSize, 0);
        pool.headSeg[m].assign(poolSize, 0);
        pool.flags[m].assign(poolSize, 0);
        pool.subIdx[m].assign(poolSize, -1);
        pool.due[m].assign(poolSize, kNotDue);
        pool.dueCycle[m].assign(poolSize, 0);
        pool.dueOrigin[m].assign(poolSize, 0);
        pool.src[m].assign(poolSize, kInvalidReg);
        pool.cdBits[m].assign(poolWords, 0);
        pool.cdSummary[m].assign(summaryWords, 0);
    }
    pool.memCount.assign(poolSize, 0);
    pool.seq.assign(poolSize, 0);
    pool.seg.assign(poolSize, kFreeSlot);
    pool.headChain.assign(poolSize, kNoChain);
    pool.headGen.assign(poolSize, 0);
    pool.inst.resize(poolSize);
    pool.eligBits.assign(poolWords, 0);
    segBits.assign(n * poolWords, 0);
    segSummary.assign(n * summaryWords, 0);
    segCount.assign(n, 0);
    scratchMoves.resize(std::max(1u, params.issueWidth));

    // Every arrival lies within n - 1 cycles of the next pass, so
    // n + 1 buckets never hold two live cycles.
    std::size_t buckets = 1;
    while (buckets < n + 1)
        buckets *= 2;
    calendar.resize(buckets);
    calendarMask = buckets - 1;
}

std::size_t
SegmentedIq::occupancy() const
{
    return totalOcc;
}

SegmentedIq::ChainState &
SegmentedIq::stateOf(ChainId id)
{
    auto idx = static_cast<std::size_t>(id);
    if (idx >= chainStates.size()) {
        chainStates.resize(idx + 1);
        chainHot.resize(idx + 1);
    }
    return chainStates[idx];
}

const SegmentedIq::ChainState &
SegmentedIq::stateOf(ChainId id) const
{
    return const_cast<SegmentedIq *>(this)->stateOf(id);
}

bool
SegmentedIq::entryAvailable(const RegInfoEntry &e)
{
    if (!e.pending)
        return true;
    return e.selfTimed && !e.suspended && e.latency <= 0;
}

unsigned
SegmentedIq::predictedLatency(const DynInst &inst) const
{
    if (inst.isLoad())
        return params.predictedLoadLatency;
    return fu.latency(inst.opClass());
}

SegmentedIq::Plan
SegmentedIq::computePlan(const DynInstPtr &inst, bool counting) const
{
    Plan plan;
    ++work.planCalls;

    // Collect pending-source memberships from the register info table,
    // with head position/self-timed status read from the (compact)
    // per-chain-wire state.
    const auto srcs = inst->staticInst.srcRegs();
    const bool is_store = inst->isStore();
    ChainMembership mem[2];
    int src_of[2] = {-1, -1};
    int n = 0;
    for (int i = 0; i < 2; ++i) {
        RegIndex r = srcs[i];
        if (r == kInvalidReg)
            continue;
        if (is_store && i == 1)
            continue;  // store data does not gate address generation
        const RegInfoEntry &e = regInfo[r];
        if (entryAvailable(e))
            continue;
        // A chain freed since this entry was written means its head
        // wrote back long ago; the entry self-times to completion, so
        // keep it only while its countdown is still pending (handled
        // by entryAvailable); with a stale generation the wire carries
        // a different chain, so fall back to a pure countdown.
        ChainMembership m;
        m.chain = e.chain;
        m.gen = e.gen;
        if (e.chain != kNoChain) {
            // The 16-byte hot mirror holds exactly the scalars this
            // path reads (audited against ChainState).
            const ChainHot &ch = chainHot[static_cast<std::size_t>(e.chain)];
            if (ch.gen != e.gen) {
                // Wire reused: head long gone, value effectively ready.
                continue;
            }
            m.appliedSeq = ch.seqCounter;
            m.headSegment = ch.headSegment;
            m.selfTimed = ch.selfTimed != 0;
            m.suspended = ch.suspended != 0;
            m.delay = ch.selfTimed ? e.latency
                                   : 2 * ch.headSegment + e.latency;
        } else {
            m.selfTimed = true;
            m.suspended = false;
            m.delay = e.latency;
        }
        src_of[n] = i;
        mem[n++] = m;
    }

    // Merge two memberships of the same chain (track the later one),
    // and two pure-countdown memberships (the max delay dominates).
    const bool same_chain = n == 2 && mem[0].chain != kNoChain &&
                            mem[0].chain == mem[1].chain &&
                            mem[0].gen == mem[1].gen;
    const bool both_countdown =
        n == 2 && mem[0].chain == kNoChain && mem[1].chain == kNoChain;
    if (same_chain || both_countdown) {
        if (mem[1].delay > mem[0].delay) {
            mem[0] = mem[1];
            src_of[0] = src_of[1];
        }
        n = 1;
    }

    const bool two_real_chains = n == 2 && mem[0].chain != kNoChain &&
                                 mem[1].chain != kNoChain;
    if (two_real_chains)
        plan.hadTwoOutstanding = true;

    if (n == 2 && params.useLrp) {
        // Follow only the operand predicted to arrive later (4.3).
        plan.usedLrp = true;
        bool left = counting ? lrp->predictLeftCritical(inst->pc)
                             : lrp->peekLeftCritical(inst->pc);
        plan.lrpPickedLeft = left;
        int keep = -1;
        for (int k = 0; k < 2; ++k) {
            if ((left && src_of[k] == 0) || (!left && src_of[k] == 1))
                keep = k;
        }
        // If the predicted operand is not pending, keep the pending one.
        if (keep < 0)
            keep = 0;
        mem[0] = mem[keep];
        n = 1;
    }

    plan.numMemberships = n;
    for (int k = 0; k < n; ++k)
        plan.memberships[k] = mem[k];

    // Chain-head creation policy (3.4).
    if (inst->isLoad()) {
        bool predicted_hit = false;
        if (params.useHmp) {
            plan.usedHmp = true;
            predicted_hit = counting ? hmp->predictHit(inst->pc)
                                     : hmp->peekHit(inst->pc);
            plan.hmpPredictedHit = predicted_hit;
        }
        if (!predicted_hit) {
            plan.needNewChain = true;
            plan.isLoadHead = true;
        }
    } else if (two_real_chains && !params.useLrp &&
               inst->staticInst.dstReg() != kInvalidReg) {
        // A two-chain instruction must head a new chain so that its
        // dependents never need to follow more than two chains.
        plan.needNewChain = true;
    }

    return plan;
}

int
SegmentedIq::targetSegment() const
{
    // Dispatch is confined to the powered segments.
    const int n = static_cast<int>(activeSegments);
    if (!params.enableBypass) {
        return segCount[static_cast<unsigned>(n - 1)] < params.segmentSize
                   ? n - 1
                   : -1;
    }
    int highest = -1;
    for (int k = n - 1; k >= 0; --k) {
        if (segCount[static_cast<unsigned>(k)] != 0) {
            highest = k;
            break;
        }
    }
    if (highest < 0)
        return 0;  // entire queue empty: straight to the issue buffer
    if (segCount[static_cast<unsigned>(highest)] < params.segmentSize)
        return highest;
    if (highest + 1 < n)
        return highest + 1;
    return -1;  // top (active) segment full
}

bool
SegmentedIq::fastPlanEligible(const DynInst &inst) const
{
    // Identity shortcut: a non-load whose gating arch sources are all
    // available in the table gets the default Plan -- computePlan would
    // find no memberships, create no chain and read no predictor, so
    // skipping it is observable-equivalent.
    if (inst.isLoad())
        return false;
    const auto srcs = inst.staticInst.srcRegs();
    const bool is_store = inst.isStore();
    for (int i = 0; i < 2; ++i) {
        const RegIndex r = srcs[i];
        if (r == kInvalidReg)
            continue;
        if (is_store && i == 1)
            continue;
        if (!((regAvail >> r) & 1))
            return false;
    }
    return true;
}

bool
SegmentedIq::canInsert(const DynInstPtr &inst)
{
    ScopedTimer timer(profiling, prof.dispatchSec);
    if (targetSegment() < 0) {
        dispatchStallsFull.inc();
        return false;
    }
    if (fastPlanEligible(*inst)) {
        work.laneWordsTouched += 1;
        planMemo = Plan{};
        planMemoSeq = inst->seq;
        return true;
    }
    Plan plan = computePlan(inst, false);
    planMemo = plan;
    planMemoSeq = inst->seq;
    if (plan.needNewChain && !chains.available()) {
        chainStalls.inc();
        return false;
    }
    return true;
}

void
SegmentedIq::insert(const DynInstPtr &inst, Cycle)
{
    ScopedTimer timer(profiling, prof.dispatchSec);
    const int target = targetSegment();
    SCIQ_ASSERT(target >= 0, "insert into full segmented IQ");

    if (planMemoSeq == inst->seq) {
        if (planMemo.usedLrp)
            lrp->predictLeftCritical(inst->pc);
        if (planMemo.usedHmp)
            hmp->predictHit(inst->pc);
    } else {
        planMemo = computePlan(inst, true);
    }
    planMemoSeq = kInvalidSeqNum;
    const Plan &plan = planMemo;
    SCIQ_ASSERT(!plan.needNewChain || chains.available(),
                "insert without a free chain");

    inst->hadTwoOutstanding = plan.hadTwoOutstanding;
    inst->lrpUsed = plan.usedLrp;
    inst->lrpPredictedLeft = plan.lrpPickedLeft;
    inst->hmpUsed = plan.usedHmp;
    inst->hmpPredictedHit = plan.hmpPredictedHit;
    if (plan.hadTwoOutstanding)
        twoOutstanding.inc();

    auto &seg_state = inst->seg;
    if (plan.needNewChain) {
        auto [id, gen] = chains.alloc();
        seg_state.headedChain = id;
        seg_state.headedGen = gen;
        seg_state.chainReleased = false;
        ChainState &cs = stateOf(id);
        cs.gen = gen;
        cs.headSegment = target;
        cs.selfTimed = false;
        cs.suspended = false;
        cs.seqCounter = 0;
        cs.log.clear();
        // Subscriber lists are NOT cleared on wire reuse: stale-
        // generation listeners are skipped by delivery and drop off
        // through their own lifecycle; stale expiry records and
        // calendar keys are no-ops.
        syncChainHot(id);
        chainsCreated.inc();
        if (plan.isLoadHead)
            headsFromLoads.inc();
    }

    soaInsert(inst, target, plan);
    instsInserted.inc();
    dispatchSegment.sample(static_cast<double>(target));

    // Update the register information table for the destination.
    RegIndex dst = inst->staticInst.dstReg();
    if (dst != kInvalidReg) {
        undoLog.push_back({inst->seq, dst, regInfo[dst]});
        // unsubscribeReg reads only the subscription index, so the
        // entry can be rebuilt in place first.
        unsubscribeReg(dst);
        RegInfoEntry &e = regInfo[dst];
        e = RegInfoEntry{};
        e.pending = true;
        const int exec_lat = static_cast<int>(predictedLatency(*inst));
        if (seg_state.headedChain != kNoChain) {
            e.chain = seg_state.headedChain;
            e.gen = seg_state.headedGen;
            e.appliedSeq = 0;
            e.latency = exec_lat;
            e.headSeg = target;
            e.selfTimed = false;
        } else {
            // Prefer to express the destination relative to a real
            // chain among the memberships (the latest one).
            int best = -1;
            for (int k = 0; k < plan.numMemberships; ++k) {
                if (plan.memberships[k].chain == kNoChain)
                    continue;
                if (best < 0 || plan.memberships[k].delay >
                                    plan.memberships[best].delay) {
                    best = k;
                }
            }
            if (best >= 0) {
                const ChainMembership &m = plan.memberships[best];
                e.chain = m.chain;
                e.gen = m.gen;
                e.appliedSeq = m.appliedSeq;
                e.headSeg = m.headSegment;
                e.selfTimed = m.selfTimed;
                e.suspended = m.suspended;
                e.latency = (m.selfTimed
                                 ? m.delay
                                 : m.delay - 2 * m.headSegment) + exec_lat;
            } else {
                // No real chains: pure countdown from now.
                int longest = 0;
                for (int k = 0; k < plan.numMemberships; ++k)
                    longest = std::max(longest,
                                       plan.memberships[k].delay);
                e.chain = kNoChain;
                e.selfTimed = true;
                e.latency = longest + exec_lat;
            }
        }
        if (e.chain != kNoChain)
            subscribeReg(dst);
        armReg(dst);
        syncRegCd(dst);
    }
}

// --- Incremental-index maintenance (section 11) --------------------------

void
SegmentedIq::subscribeReg(RegIndex r)
{
    ChainState &cs = stateOf(regInfo[r].chain);
    regSubChain[r] = regInfo[r].chain;
    regSubPos[r] = static_cast<int>(cs.regSubs.size());
    cs.regSubs.push_back(r);
}

void
SegmentedIq::unsubscribeReg(RegIndex r)
{
    if (regSubChain[r] == kNoChain)
        return;
    ChainState &cs = stateOf(regSubChain[r]);
    const int i = regSubPos[r];
    regSubChain[r] = kNoChain;
    regSubPos[r] = -1;
    const RegIndex last = cs.regSubs.back();
    cs.regSubs[i] = last;
    cs.regSubs.pop_back();
    if (static_cast<std::size_t>(i) < cs.regSubs.size())
        regSubPos[last] = i;
}

void
SegmentedIq::syncRegCd(RegIndex r)
{
    const RegInfoEntry &e = regInfo[r];
    const bool want =
        e.pending && e.selfTimed && !e.suspended && e.latency > 0;
    const int i = regCdPos[r];
    if (want && i < 0) {
        regCdPos[r] = static_cast<int>(regCountdown.size());
        regCountdown.push_back(r);
    } else if (!want && i >= 0) {
        regCdPos[r] = -1;
        const RegIndex last = regCountdown.back();
        regCountdown[i] = last;
        regCountdown.pop_back();
        if (static_cast<std::size_t>(i) < regCountdown.size())
            regCdPos[last] = i;
    }
    // Every table mutation funnels through here, so the availability
    // mask (fast-plan path) can be maintained in the same place.  A
    // stale-generation chain entry keeps its bit clear until delivery
    // or overwrite catches up -- conservative, never wrong.
    const std::uint64_t abit = 1ULL << r;
    if (entryAvailable(e))
        regAvail |= abit;
    else
        regAvail &= ~abit;
}

void
SegmentedIq::syncChainHot(ChainId id)
{
    const ChainState &cs = chainStates[static_cast<std::size_t>(id)];
    ChainHot &ch = chainHot[static_cast<std::size_t>(id)];
    ch.seqCounter = cs.seqCounter;
    ch.gen = cs.gen;
    ch.headSegment = static_cast<std::int16_t>(cs.headSegment);
    ch.selfTimed = cs.selfTimed ? 1 : 0;
    ch.suspended = cs.suspended ? 1 : 0;
}

void
SegmentedIq::emitSignal(const DynInstPtr &head, SignalKind kind,
                        int origin_segment, Cycle cycle)
{
    if (!head->seg.chainReleased) {
        emitSignal(head->seg.headedChain, head->seg.headedGen, kind,
                   origin_segment, cycle);
    }
}

void
SegmentedIq::emitSignal(ChainId id, std::uint32_t gen, SignalKind kind,
                        int origin_segment, Cycle cycle)
{
    // A resident head never has its wire released: release happens at
    // writeback or in the squash walk, both after the entry has left.
    if (id == kNoChain)
        return;
    ChainState &cs = stateOf(id);
    if (cs.gen != gen)
        return;

    switch (kind) {
      case SignalKind::Assert:
        if (cs.headSegment > 0)
            cs.headSegment -= 1;
        else
            cs.selfTimed = true;
        break;
      case SignalKind::Suspend:
        cs.suspended = true;
        break;
      case SignalKind::Resume:
        cs.suspended = false;
        break;
    }
    cs.log.push_back(LoggedSignal{++cs.seqCounter, cycle, origin_segment,
                                  kind});
    syncChainHot(id);
    // Step 5 pops expiry records front-first, so it must see them in
    // cycle order.
    SCIQ_ASSERT(expiry.empty() || expiry.back().cycle <= cycle,
                "chain signal at cycle %llu logged after cycle %llu",
                static_cast<unsigned long long>(cycle),
                static_cast<unsigned long long>(expiry.back().cycle));
    expiry.push_back({cycle, id});
    if (!cs.armPending) {
        cs.armPending = true;
        pendingArm.push_back(id);
    }
    if (static_cast<double>(cs.log.size()) > logPeak.value())
        logPeak.set(static_cast<double>(cs.log.size()));
}

void
SegmentedIq::issueSelect(Cycle cycle, const TryIssue &try_issue)
{
    ScopedTimer timer(profiling, prof.issueSec);
    const std::size_t occ0 = segCount[0];
    unsigned ready = 0;
    unsigned issued = 0;
    forEachByAge(
        segRow(0),
        [&](std::size_t w) {
            ++work.laneWordsTouched;
            return segWord(0, w);
        },
        [&](unsigned slot) {
            ++work.laneWordsTouched;
            const bool r = scoreboard.isReady(pool.src[0][slot]) &&
                           scoreboard.isReady(pool.src[1][slot]);
            if (r)
                ++ready;
            if (r && issued < params.issueWidth &&
                try_issue(pool.inst[slot])) {
                instsIssued.inc();
                ++issued;
                ++issuedThisCycle;
                emitSignal(pool.headChain[slot], pool.headGen[slot],
                           SignalKind::Assert, 0, cycle);
                soaLeaveSlot(slot);
            }
            return true;
        });
    seg0Ready.sample(static_cast<double>(ready));
    seg0Occupancy.sample(static_cast<double>(occ0));
}

void
SegmentedIq::setAuditTracking(bool on)
{
    auditTracking = on;
    const std::size_t n = numSegments();
    freePrevSnapshot.assign(on ? n : 0, params.segmentSize);
    promotedInto.assign(on ? n : 0, 0);
    dispatchPlan.assign(on ? poolSize : 0, Plan{});
}

void
SegmentedIq::dumpSegment(std::ostream &os, unsigned k) const
{
    os << "segment " << k << ": " << segCount[k] << "/" << params.segmentSize
       << " entries, admit threshold " << threshold(k) << "\n";
    std::vector<DynInstPtr> residents;
    forEachByAge(segRow(k), [&](std::size_t w) { return segWord(k, w); },
                 [&](unsigned slot) {
                     residents.push_back(pool.inst[slot]);
                     return true;
                 });
    for (const auto &inst : residents) {
        os << "  seq=" << inst->seq << " pc=" << std::hex << inst->pc
           << std::dec << " seg=" << debugSegment(inst);
        if (inst->seg.headedChain != kNoChain) {
            os << " heads=" << inst->seg.headedChain
               << (inst->seg.chainReleased ? "(released)" : "");
        }
        for (int m = 0; m < debugMembershipCount(inst); ++m) {
            const ChainMembership mem = debugMembership(inst, m);
            os << " [chain=" << mem.chain << " delay=" << mem.delay
               << " headSeg=" << mem.headSegment
               << (mem.selfTimed ? " selfTimed" : "")
               << (mem.suspended ? " suspended" : "")
               << " applied=" << mem.appliedSeq << "]";
        }
        os << "\n";
    }
}

void
SegmentedIq::dumpState(std::ostream &os) const
{
    os << "segmented iq: occ=" << totalOcc << "/" << params.numEntries
       << " chains=" << chains.inUse() << "(peak " << chains.peak() << ")"
       << " activeSegments=" << activeSegments << "/" << numSegments()
       << " deadlockCycles="
       << static_cast<std::uint64_t>(deadlockCycles.value())
       << " deadlockRecoveries="
       << static_cast<std::uint64_t>(deadlockRecoveries.value()) << "\n";
    for (unsigned k = 0; k < numSegments(); ++k)
        dumpSegment(os, k);
}

void
SegmentedIq::tick(Cycle cycle, bool core_busy)
{
    const unsigned n = numSegments();

    if (auditTracking) {
        freePrevSnapshot = freePrevCycle;
        promotedInto.assign(n, 0);
    }

    // 0. Release chain wires whose drain delay has matured.
    while (!chainDrainQueue.empty() &&
           chainDrainQueue.front().second <= cycle) {
        chains.free(chainDrainQueue.front().first);
        chainDrainQueue.pop_front();
    }

    // 1-3. Promotion, signal delivery, self-timed countdowns -- the
    //    per-cycle scheduler substages.
    promotedThisCycle = 0;
    {
        ScopedTimer t(profiling, prof.promoteSec);
        tickPromote(cycle);
    }
    {
        ScopedTimer t(profiling, prof.deliverSec);
        tickDeliver(cycle);
    }
    {
        ScopedTimer t(profiling, prof.countdownSec);
        tickCountdown();
    }

    // 4. Deadlock detection and recovery (section 4.5).
    const std::size_t occ = totalOcc;
    if (occ > 0 && issuedThisCycle == 0 && promotedThisCycle == 0 &&
        !core_busy) {
        deadlockCycles.inc();
        runDeadlockRecovery(cycle);
    }
    issuedThisCycle = 0;

    // 5. Previous-cycle free counts for the next promotion round, and
    //    signal-log pruning (everything older than the wire pipeline
    //    depth has been seen everywhere).
    for (unsigned k = 0; k < n; ++k) {
        freePrevCycle[k] =
            static_cast<unsigned>(params.segmentSize - segCount[k]);
    }
    if (cycle > n + 1)
        expireLogs(cycle - n - 1);

    // 6. Dynamic segment resizing (paper section 7): gate segments by
    //    occupancy, shrinking only when the segment being turned off
    //    is already empty so no instruction is orphaned.
    if (params.dynamicResize && cycle >= nextResizeCheck) {
        nextResizeCheck = cycle + params.resizeInterval;
        const double active_cap =
            static_cast<double>(activeSegments) * params.segmentSize;
        if (activeSegments < n &&
            static_cast<double>(occ) > params.resizeGrowOcc * active_cap) {
            ++activeSegments;
            resizeGrows.inc();
        } else if (activeSegments > 1 &&
                   segCount[activeSegments - 1] == 0 &&
                   static_cast<double>(occ) <
                       params.resizeShrinkOcc *
                           static_cast<double>(activeSegments - 1) *
                           params.segmentSize) {
            --activeSegments;
            resizeShrinks.inc();
        }
    }
    segmentCyclesActive.inc(static_cast<double>(activeSegments));
    activeSegmentsAvg.sample(static_cast<double>(activeSegments));

    occupancyAvg.sample(static_cast<double>(occ));
    chainsInUseAvg.sample(static_cast<double>(chains.inUse()));
    if (profiling)
        ++prof.ticks;
}

void
SegmentedIq::onLoadMiss(const DynInstPtr &inst, Cycle cycle)
{
    emitSignal(inst, SignalKind::Suspend, 0, cycle);
}

void
SegmentedIq::onLoadComplete(const DynInstPtr &inst, Cycle cycle)
{
    emitSignal(inst, SignalKind::Resume, 0, cycle);
}

void
SegmentedIq::releaseChain(const DynInstPtr &inst, Cycle cycle)
{
    if (inst->seg.headedChain == kNoChain || inst->seg.chainReleased)
        return;
    // Delay the wire's reuse until every in-flight signal has been
    // seen at the top of the queue.
    inst->seg.chainReleased = true;
    chainDrainQueue.emplace_back(inst->seg.headedChain,
                                 cycle + numSegments() + 2);
}

void
SegmentedIq::onWriteback(const DynInstPtr &inst, Cycle cycle)
{
    // Chains are deallocated when the head writes back (section 6.1).
    releaseChain(inst, cycle);
}

void
SegmentedIq::onCommit(const DynInstPtr &inst)
{
    while (!undoLog.empty() && undoLog.front().seq <= inst->seq)
        undoLog.pop_front();
}

void
SegmentedIq::onSquashInst(const DynInstPtr &inst)
{
    // Called youngest-first: table restores unwind in reverse order.
    while (!undoLog.empty() && undoLog.back().seq == inst->seq) {
        const RegIndex r = undoLog.back().archDst;
        unsubscribeReg(r);
        regInfo[r] = undoLog.back().prev;
        if (regInfo[r].pending && regInfo[r].chain != kNoChain)
            subscribeReg(r);
        armReg(r);  // may have fallen behind its wire
        syncRegCd(r);
        undoLog.pop_back();
    }
    releaseChain(inst, 0);
}

void
SegmentedIq::squash(SeqNum youngest_kept)
{
    // The squashed entries hold the youngest dispatch positions: rewind
    // the cursor over them (issued ones included, by their kept seq
    // lane) and release the residents among them.
    for (unsigned step = 0; step < poolSize; ++step) {
        const unsigned prev = (cursor == 0 ? poolSize : cursor) - 1;
        if (pool.seq[prev] <= youngest_kept)
            break;
        cursor = prev;
        if (pool.seg[prev] != kFreeSlot)
            soaLeaveSlot(prev);
    }
}

// --- Slot pool (DESIGN.md section 16) ------------------------------------
// Per-entry scheduler state lives in a pool of slots numbered by
// dispatch position, each segment is a bitmask over the pool, and
// delivery visits only the listeners whose next signal arrives this
// cycle.

int
SegmentedIq::laneEffDelay(unsigned slot) const
{
    int d = 0;
    const int mc = pool.memCount[slot];
    if (mc > 0)
        d = std::max(d, static_cast<int>(pool.delay[0][slot]));
    if (mc > 1)
        d = std::max(d, static_cast<int>(pool.delay[1][slot]));
    return d;
}

void
SegmentedIq::setLaneElig(unsigned slot, bool now)
{
    std::uint64_t &w = pool.eligBits[slot >> 6];
    const std::uint64_t bit = 1ULL << (slot & 63);
    w = now ? (w | bit) : (w & ~bit);
}

void
SegmentedIq::refreshLaneElig(unsigned slot)
{
    const unsigned k = pool.seg[slot];
    setLaneElig(slot, k >= 1 && laneEffDelay(slot) < threshold(k - 1));
}

void
SegmentedIq::syncLaneCd(unsigned slot, int mem)
{
    const std::uint8_t f = pool.flags[mem][slot];
    setCdBit(slot, mem,
             (f & kLaneSelfTimed) && !(f & kLaneSuspended) &&
                 pool.delay[mem][slot] > 0);
}

void
SegmentedIq::setCdBit(unsigned slot, int mem, bool on)
{
    const std::size_t wi = slot >> 6;
    std::uint64_t &w = pool.cdBits[mem][wi];
    std::uint64_t &sum = pool.cdSummary[mem][wi >> 6];
    const std::uint64_t bit = 1ULL << (slot & 63);
    w = on ? (w | bit) : (w & ~bit);
    sum = w ? (sum | 1ULL << (wi & 63)) : (sum & ~(1ULL << (wi & 63)));
}

template <class Word, class Visit>
void
SegmentedIq::forEachByAge(const std::uint64_t *summary, Word word,
                          Visit visit) const
{
    // Slot i holds dispatch positions congruent to i, and every
    // resident lies within the last poolSize positions, so the cursor
    // slot (the oldest possible position) starts the age order.  The
    // cursor's own word is split: its bits from the cursor come first,
    // the ones below it last.
    const std::size_t w0 = cursor >> 6;
    const std::uint64_t from_cursor = ~0ULL << (cursor & 63);
    const auto scan = [&](std::size_t w, std::uint64_t keep) {
        for (std::uint64_t bits = word(w) & keep; bits; bits &= bits - 1) {
            const auto slot = static_cast<unsigned>(
                w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
            if (!visit(slot))
                return false;
        }
        return true;
    };
    const bool more = forEachBitFrom(
        summary, summaryWords, w0,
        [&](std::size_t w) { return scan(w, w == w0 ? from_cursor : ~0ULL); });
    if (more)
        scan(w0, ~from_cursor);
}

unsigned
SegmentedIq::oldestIn(unsigned k) const
{
    unsigned oldest = 0;
    forEachByAge(segRow(k), [&](std::size_t w) { return segWord(k, w); },
                 [&](unsigned slot) {
                     oldest = slot;
                     return false;
                 });
    return oldest;
}

unsigned
SegmentedIq::youngestIn(unsigned k) const
{
    unsigned youngest = 0;
    forEachByAge(segRow(k), [&](std::size_t w) { return segWord(k, w); },
                 [&](unsigned slot) {
                     youngest = slot;
                     return true;
                 });
    return youngest;
}

void
SegmentedIq::soaPlace(unsigned slot, unsigned to)
{
    pool.seg[slot] = static_cast<std::uint16_t>(to);
    const std::size_t w = slot >> 6;
    segWord(to, w) |= 1ULL << (slot & 63);
    segSummary[to * summaryWords + (w >> 6)] |= 1ULL << (w & 63);
    ++segCount[to];
    refreshLaneElig(slot);
    // A listener behind its wire now sees its next entry at a new
    // cycle; a caught-up one stays caught up.
    for (int m = 0; m < pool.memCount[slot]; ++m) {
        Cycle &due = pool.due[m][slot];
        if (due == kNotDue)
            continue;
        const int lag = static_cast<int>(to) - pool.dueOrigin[m][slot];
        const Cycle at =
            pool.dueCycle[m][slot] + (lag > 0 ? static_cast<Cycle>(lag) : 0);
        if (std::max(at, lastPass + 1) != due)
            due = schedule(at, static_cast<std::uint32_t>(slot << 1 | m));
    }
}

void
SegmentedIq::soaUnplace(unsigned slot)
{
    const unsigned k = pool.seg[slot];
    const std::size_t w = slot >> 6;
    if ((segWord(k, w) &= ~(1ULL << (slot & 63))) == 0)
        segSummary[k * summaryWords + (w >> 6)] &= ~(1ULL << (w & 63));
    --segCount[k];
}

void
SegmentedIq::soaLeaveSlot(unsigned slot)
{
    for (int m = 0; m < pool.memCount[slot]; ++m) {
        const std::int32_t si = pool.subIdx[m][slot];
        if (si >= 0) {
            ChainState &cs = stateOf(pool.chain[m][slot]);
            pool.subIdx[m][slot] = -1;
            const SoaSub last = cs.soaSubs.back();
            cs.soaSubs[static_cast<std::size_t>(si)] = last;
            cs.soaSubs.pop_back();
            if (static_cast<std::size_t>(si) < cs.soaSubs.size())
                pool.subIdx[last.mem][last.slot] = si;
        }
        setCdBit(slot, m, false);
        pool.due[m][slot] = kNotDue;  // any calendar key goes stale
    }
    setLaneElig(slot, false);
    soaUnplace(slot);
    pool.seg[slot] = kFreeSlot;
    pool.inst[slot] = nullptr;
    --totalOcc;
}

void
SegmentedIq::soaPromote(unsigned from, const std::uint32_t *slots,
                        std::size_t n, Cycle cycle)
{
    const unsigned to = from - 1;
    for (std::size_t i = 0; i < n; ++i) {
        const unsigned slot = slots[i];
        soaUnplace(slot);
        soaPlace(slot, to);
        // Two segment words, the label, eligibility, head identity.
        work.laneWordsTouched += 5;
        // A promoting chain head asserts its wire in the segment it
        // leaves.
        emitSignal(pool.headChain[slot], pool.headGen[slot],
                   SignalKind::Assert, static_cast<int>(from), cycle);
    }
}

std::size_t
SegmentedIq::firstUnapplied(const ChainState &cs, std::uint64_t applied)
{
    if (cs.log.empty())
        return 0;
    const std::uint64_t front = cs.log.front().seq;
    return applied < front ? 0 : static_cast<std::size_t>(applied - front + 1);
}

Cycle
SegmentedIq::arrivalAt(const LoggedSignal &sig, int seg)
{
    const int lag = seg - sig.originSegment;
    return sig.cycle + (lag > 0 ? static_cast<Cycle>(lag) : 0);
}

Cycle
SegmentedIq::schedule(Cycle at, std::uint32_t key)
{
    const Cycle when = std::max(at, lastPass + 1);
    calendar[when & calendarMask].push_back(key);
    return when;
}

const SegmentedIq::LoggedSignal *
SegmentedIq::firstPending(const ChainState &cs, std::uint64_t applied)
{
    const std::size_t i = firstUnapplied(cs, applied);
    return i < cs.log.size() ? &cs.log.at(i) : nullptr;
}

void
SegmentedIq::armLane(unsigned slot, int m, const LoggedSignal &sig)
{
    ++work.signalDeliveries;
    pool.dueCycle[m][slot] = sig.cycle;
    pool.dueOrigin[m][slot] = static_cast<std::int16_t>(sig.originSegment);
    pool.due[m][slot] = schedule(arrivalAt(sig, pool.seg[slot]),
                                 static_cast<std::uint32_t>(slot << 1 | m));
}

void
SegmentedIq::armMember(unsigned slot, int m)
{
    pool.due[m][slot] = kNotDue;
    const ChainId id = pool.chain[m][slot];
    if (id == kNoChain)
        return;
    const auto c = static_cast<std::size_t>(id);
    // Applied up to the wire's counter: nothing to deliver (the packed
    // mirror answers without loading the ChainState).
    if (chainHot[c].gen != pool.gen[m][slot] ||
        pool.applied[m][slot] >= chainHot[c].seqCounter)
        return;
    if (const LoggedSignal *sig =
            firstPending(chainStates[c], pool.applied[m][slot]))
        armLane(slot, m, *sig);
}

void
SegmentedIq::armReg(RegIndex r)
{
    Cycle &due = regDue[r];
    due = kNotDue;
    const RegInfoEntry &e = regInfo[r];
    if (!e.pending || e.chain == kNoChain)
        return;
    const auto c = static_cast<std::size_t>(e.chain);
    if (chainHot[c].gen != e.gen || e.appliedSeq >= chainHot[c].seqCounter)
        return;
    if (const LoggedSignal *sig = firstPending(chainStates[c], e.appliedSeq)) {
        ++work.signalDeliveries;
        due = schedule(arrivalAt(*sig, static_cast<int>(numSegments()) - 1),
                       kRegKey | static_cast<std::uint32_t>(r));
    }
}

void
SegmentedIq::armListeners(ChainId id)
{
    // A listener already due is blocked behind an earlier entry (a
    // delivery scan stops at the first one not yet visible), so only
    // the caught-up ones learn a due cycle: their first unapplied
    // entry's arrival at the segment they are in now.
    ChainState &cs = chainStates[static_cast<std::size_t>(id)];
    cs.armPending = false;
    for (const SoaSub &sub : cs.soaSubs) {
        ++work.laneWordsTouched;
        if (pool.due[sub.mem][sub.slot] != kNotDue ||
            pool.gen[sub.mem][sub.slot] != cs.gen)
            continue;
        if (const LoggedSignal *sig =
                firstPending(cs, pool.applied[sub.mem][sub.slot]))
            armLane(sub.slot, sub.mem, *sig);
    }
    const int top = static_cast<int>(numSegments()) - 1;
    for (RegIndex r : cs.regSubs) {
        ++work.laneWordsTouched;
        const RegInfoEntry &e = regInfo[r];
        if (regDue[r] != kNotDue || !e.pending || e.gen != cs.gen)
            continue;
        if (const LoggedSignal *sig = firstPending(cs, e.appliedSeq)) {
            ++work.signalDeliveries;
            regDue[r] = schedule(arrivalAt(*sig, top),
                                 kRegKey | static_cast<std::uint32_t>(r));
        }
    }
}

void
SegmentedIq::soaInsert(const DynInstPtr &inst, int target, const Plan &plan)
{
    // Every resident is in the ROB, so the entry dispatched poolSize
    // positions ago has left and this slot is free.
    const unsigned slot = cursor;
    SCIQ_ASSERT(pool.seg[slot] == kFreeSlot,
                "segmented IQ: slot %u still occupied; more than %u "
                "entries in flight",
                slot, poolSize);
    cursor = cursor + 1 == poolSize ? 0 : cursor + 1;
    const auto srcs = iqSources(*inst);
    pool.src[0][slot] = srcs[0];
    pool.src[1][slot] = srcs[1];
    pool.memCount[slot] = static_cast<std::uint8_t>(plan.numMemberships);
    pool.seq[slot] = inst->seq;
    pool.headChain[slot] = inst->seg.headedChain;
    pool.headGen[slot] = inst->seg.headedGen;
    pool.inst[slot] = inst;
    for (int m = 0; m < plan.numMemberships; ++m) {
        const ChainMembership &mem = plan.memberships[m];
        pool.delay[m][slot] = mem.delay;
        pool.chain[m][slot] = mem.chain;
        pool.gen[m][slot] = mem.gen;
        pool.applied[m][slot] = mem.appliedSeq;
        pool.headSeg[m][slot] = static_cast<std::int16_t>(mem.headSegment);
        pool.flags[m][slot] =
            static_cast<std::uint8_t>((mem.selfTimed ? kLaneSelfTimed : 0) |
                                      (mem.suspended ? kLaneSuspended : 0));
        if (mem.chain != kNoChain) {
            ChainState &cs = stateOf(mem.chain);
            pool.subIdx[m][slot] =
                static_cast<std::int32_t>(cs.soaSubs.size());
            cs.soaSubs.push_back({static_cast<std::uint16_t>(slot),
                                  static_cast<std::uint16_t>(m)});
        } else {
            pool.subIdx[m][slot] = -1;
        }
        syncLaneCd(slot, m);
    }
    if (auditTracking)
        dispatchPlan[slot] = plan;
    ++totalOcc;
    soaPlace(slot, static_cast<unsigned>(target));
    for (int m = 0; m < plan.numMemberships; ++m)
        armMember(slot, m);
}

// The three tick substages below are flattened: every per-slot helper
// they call (placement, eligibility, arming, signal emission) is inlined
// into their loops, where a call per event used to cost more than the
// event itself.
[[gnu::flatten]] void
SegmentedIq::tickPromote(Cycle cycle)
{
    // Ascending pass: a round at k opens room below k + 1 before k + 1
    // is looked at, and moves nothing into or out of the segments above.
    unsigned dirty = 0;
    const unsigned iw = params.issueWidth;
    const unsigned nseg = numSegments();
    for (unsigned k = 1; k < nseg; ++k) {
        if (segCount[k] == 0)
            continue;
        work.laneWordsTouched += 2;
        const std::size_t free_here = params.segmentSize - segCount[k];
        const std::size_t free_below = params.segmentSize - segCount[k - 1];
        const bool pushdown_possible = params.enablePushdown &&
                                       free_here < iw &&
                                       free_below * 2 > 3 * iw;
        // Candidates: eligibility bit set, i.e. effective delay below
        // the threshold of the segment below.
        bool has_cand = false;
        forEachBitFrom(segRow(k), summaryWords, 0, [&](std::size_t w) {
            ++work.laneWordsTouched;
            has_cand = (segWord(k, w) & pool.eligBits[w]) != 0;
            return !has_cand;
        });
        if (!has_cand && !pushdown_possible)
            continue;
        ++dirty;

        unsigned budget = std::min<unsigned>(
            iw, std::min<unsigned>(
                    freePrevCycle[k - 1],
                    static_cast<unsigned>(free_below)));
        if (params.auditInjectOverPromote)
            budget = std::min<unsigned>(iw, static_cast<unsigned>(free_below));
        if (budget == 0)
            continue;  // no room below: the round would move nothing

        // Candidates oldest first, then pushdown victims (the rest)
        // oldest first, together at most the budget.
        std::uint32_t *moves = scratchMoves.data();
        std::size_t n = 0;
        const auto take = [&](unsigned slot) {
            moves[n++] = slot;
            return n < budget;
        };
        if (has_cand) {
            forEachByAge(
                segRow(k),
                [&](std::size_t w) {
                    ++work.laneWordsTouched;
                    return segWord(k, w) & pool.eligBits[w];
                },
                take);
        }
        const std::size_t n_cand = n;
        if (pushdown_possible && n < budget) {
            forEachByAge(
                segRow(k),
                [&](std::size_t w) {
                    ++work.laneWordsTouched;
                    return segWord(k, w) & ~pool.eligBits[w];
                },
                take);
        }
        soaPromote(k, moves, n, cycle);
        promotions.inc(static_cast<double>(n));
        pushdownPromotions.inc(static_cast<double>(n - n_cand));
        promotedThisCycle += static_cast<unsigned>(n);
        if (auditTracking)
            promotedInto[k - 1] += static_cast<unsigned>(n);
    }
    dirtySegments.inc(static_cast<double>(dirty));
    work.segmentsScanned += dirty;
}

void
SegmentedIq::soaDeliverMember(unsigned slot, int m, Cycle now)
{
    pool.due[m][slot] = kNotDue;
    const ChainState &cs =
        chainStates[static_cast<std::size_t>(pool.chain[m][slot])];
    if (pool.gen[m][slot] != cs.gen)
        return;  // wire reused: its old signals were all seen
    work.laneWordsTouched += 3;
    const int s = pool.seg[slot];
    const std::size_t log_sz = cs.log.size();
    std::size_t i = firstUnapplied(cs, pool.applied[m][slot]);
    const auto visible = [&] {
        ++work.signalDeliveries;
        return arrivalAt(cs.log.at(i), s) <= now;
    };
    // Apply, in log order, the entries visible at this segment past
    // the applied prefix, stopping at the first that is not.
    if (i < log_sz && visible()) {
        std::int32_t d = pool.delay[m][slot];
        std::int16_t hs = pool.headSeg[m][slot];
        std::uint8_t fl = pool.flags[m][slot];
        do {
            switch (cs.log.at(i).kind) {
              case SignalKind::Assert:
                if (hs > 0) {
                    hs -= 1;
                    d = std::max(0, d - 2);
                } else {
                    fl |= kLaneSelfTimed;
                }
                break;
              case SignalKind::Suspend:
                fl |= kLaneSuspended;
                break;
              case SignalKind::Resume:
                fl &= static_cast<std::uint8_t>(~kLaneSuspended);
                break;
            }
        } while (++i < log_sz && visible());
        pool.delay[m][slot] = d;
        pool.headSeg[m][slot] = hs;
        pool.flags[m][slot] = fl;
        pool.applied[m][slot] = cs.log.front().seq + i - 1;
        syncLaneCd(slot, m);
        refreshLaneElig(slot);
    }
    if (i < log_sz)
        armLane(slot, m, cs.log.at(i));
}

void
SegmentedIq::soaDeliverReg(RegIndex r, Cycle now)
{
    // The register table listens at the fixed top segment.
    regDue[r] = kNotDue;
    RegInfoEntry &e = regInfo[r];
    if (!e.pending || e.chain == kNoChain)
        return;
    const ChainState &cs = chainStates[static_cast<std::size_t>(e.chain)];
    if (cs.gen != e.gen)
        return;
    work.laneWordsTouched += 2;
    const int top = static_cast<int>(numSegments()) - 1;
    const std::size_t log_sz = cs.log.size();
    std::size_t i = firstUnapplied(cs, e.appliedSeq);
    Cycle at = 0;
    const auto visible = [&] {
        ++work.signalDeliveries;
        at = arrivalAt(cs.log.at(i), top);
        return at <= now;
    };
    if (i < log_sz && visible()) {
        do {
            switch (cs.log.at(i).kind) {
              case SignalKind::Assert:
                if (e.headSeg > 0)
                    e.headSeg -= 1;
                else
                    e.selfTimed = true;
                break;
              case SignalKind::Suspend:
                e.suspended = true;
                break;
              case SignalKind::Resume:
                e.suspended = false;
                break;
            }
        } while (++i < log_sz && visible());
        e.appliedSeq = cs.log.front().seq + i - 1;
        syncRegCd(r);
    }
    if (i < log_sz)
        regDue[r] = schedule(at, kRegKey | static_cast<std::uint32_t>(r));
}

[[gnu::flatten]] void
SegmentedIq::tickDeliver(Cycle cycle)
{
    // The core ticks every cycle, so this cycle's bucket holds exactly
    // the listeners due now, plus stale keys: a listener that moved,
    // left, was re-armed or overwritten, or whose wire was reused
    // since, has a different due cycle or generation, and delivering it
    // anyway would apply nothing new.
    SCIQ_ASSERT(cycle == lastPass + 1, "segmented IQ ticked at cycle %llu "
                "after cycle %llu",
                static_cast<unsigned long long>(cycle),
                static_cast<unsigned long long>(lastPass));
    // Arm before the pass counts as done: an arrival already reached
    // still belongs in this cycle's bucket.
    for (ChainId id : pendingArm)
        armListeners(id);
    pendingArm.clear();
    lastPass = cycle;
    std::vector<std::uint32_t> &bucket = calendar[cycle & calendarMask];
    for (const std::uint32_t key : bucket) {
        ++work.laneWordsTouched;
        const unsigned id = key & ~kRegKey;
        if (key & kRegKey) {
            if (regDue[id] <= cycle)
                soaDeliverReg(static_cast<RegIndex>(id), cycle);
        } else if (pool.due[id & 1][id >> 1] <= cycle) {
            soaDeliverMember(id >> 1, static_cast<int>(id & 1), cycle);
        }
    }
    bucket.clear();
}

[[gnu::flatten]] void
SegmentedIq::tickCountdown()
{
    // Decrements of distinct slots commute, so the pool is walked in
    // slot order.
    for (int m = 0; m < 2; ++m) {
        forEachBitFrom(
            pool.cdSummary[m].data(), pool.cdSummary[m].size(), 0,
            [&](std::size_t w) {
                ++work.laneWordsTouched;
                for (std::uint64_t bits = pool.cdBits[m][w]; bits;
                     bits &= bits - 1) {
                    const auto slot = static_cast<unsigned>(
                        w * 64 +
                        static_cast<std::size_t>(std::countr_zero(bits)));
                    work.laneWordsTouched += 2;
                    std::int32_t &d = pool.delay[m][slot];
                    d -= 1;
                    refreshLaneElig(slot);
                    if (d == 0)
                        setCdBit(slot, m, false);
                }
                return true;
            });
    }
    for (std::size_t i = 0; i < regCountdown.size();) {
        const RegIndex r = regCountdown[i];
        work.laneWordsTouched += 2;
        regInfo[r].latency -= 1;
        if (regInfo[r].latency == 0)
            syncRegCd(r);
        else
            ++i;
    }
}

void
SegmentedIq::runDeadlockRecovery(Cycle cycle)
{
    deadlockRecoveries.inc();
    const unsigned n = static_cast<unsigned>(segCount.size());

    // If the issue buffer is full of non-ready instructions, recycle
    // its youngest back to the top segment.  The entry keeps its slot:
    // its bit is cleared here, so the force promotions below can fill
    // segment 0, and it is relabelled to the top at the end.
    int recycled = -1;
    if (activeSegments > 1 && segCount[0] >= params.segmentSize) {
        recycled = static_cast<int>(youngestIn(0));
        soaUnplace(static_cast<unsigned>(recycled));
    }

    // Force every full segment to promote one instruction downward;
    // processing bottom-up guarantees the destination has a slot.
    for (unsigned k = 1; k < n; ++k) {
        if (segCount[k] < params.segmentSize)
            continue;
        if (segCount[k - 1] >= params.segmentSize)
            continue;  // cannot happen after bottom-up processing
        const std::uint32_t oldest = oldestIn(k);
        soaPromote(k, &oldest, 1, cycle);
        promotions.inc();
        ++promotedThisCycle;
    }

    // With nothing full, nothing promoted and nothing in flight, the
    // scheduler has stalled on stale delay values; nudge the oldest
    // instruction in the lowest non-empty segment downward.
    if (promotedThisCycle == 0 && recycled < 0) {
        for (unsigned k = 1; k < n; ++k) {
            if (segCount[k] == 0)
                continue;
            if (segCount[k - 1] < params.segmentSize) {
                const std::uint32_t oldest = oldestIn(k);
                soaPromote(k, &oldest, 1, cycle);
                promotions.inc();
                ++promotedThisCycle;
            }
            break;
        }
    }

    if (recycled >= 0) {
        const unsigned slot = static_cast<unsigned>(recycled);
        const unsigned top = activeSegments - 1;
        const ChainId head = pool.headChain[slot];
        if (head != kNoChain) {
            ChainState &cs = stateOf(head);
            if (cs.gen == pool.headGen[slot]) {
                cs.headSegment = static_cast<int>(top);
                syncChainHot(head);
            }
        }
        soaPlace(slot, top);
        SCIQ_ASSERT(segCount[top] <= params.segmentSize,
                    "deadlock recovery overflowed the top segment");
    }
}

void
SegmentedIq::expireLogs(Cycle horizon)
{
    // Records are in cycle order, and every log entry older than the
    // horizon has one here, so popping the expired records reaches
    // every log holding such an entry.  A record whose entry went with
    // a wire reuse trims nothing.
    while (!expiry.empty() && expiry.front().cycle < horizon) {
        ChainState &cs =
            chainStates[static_cast<std::size_t>(expiry.front().chain)];
        while (!cs.log.empty() && cs.log.front().cycle < horizon)
            cs.log.pop_front();
        expiry.pop_front();
    }
}

unsigned
SegmentedIq::slotOf(const DynInst &inst) const
{
    for (unsigned slot = 0; slot < pool.inst.size(); ++slot) {
        if (pool.inst[slot].get() == &inst)
            return slot;
    }
    SCIQ_ASSERT(false, "instruction not resident");
    return 0;
}

ChainMembership
SegmentedIq::debugMembership(const DynInstPtr &inst, int m) const
{
    const unsigned slot = slotOf(*inst);
    ChainMembership out;
    out.chain = pool.chain[m][slot];
    out.gen = pool.gen[m][slot];
    out.appliedSeq = pool.applied[m][slot];
    out.delay = pool.delay[m][slot];
    out.headSegment = pool.headSeg[m][slot];
    out.selfTimed = (pool.flags[m][slot] & kLaneSelfTimed) != 0;
    out.suspended = (pool.flags[m][slot] & kLaneSuspended) != 0;
    return out;
}

int
SegmentedIq::debugEffectiveDelay(const DynInstPtr &inst) const
{
    return laneEffDelay(slotOf(*inst));
}

int
SegmentedIq::debugSegment(const DynInstPtr &inst) const
{
    return pool.seg[slotOf(*inst)];
}

} // namespace sciq
