/**
 * @file
 * The paper's contribution: a segmented instruction queue scheduled by
 * dependence chains (Raasch, Binkert & Reinhardt, ISCA 2002).
 *
 * The queue is a pipeline of small segments; instructions issue only
 * from segment 0 (the issue buffer).  Promotion from segment to segment
 * is governed by per-instruction *delay values* maintained as a fixed
 * latency behind a *chain head*:
 *
 *  - each segment k admits instructions whose delay is below its
 *    threshold 2*(k+1); dispatch into the top segment is unconditional;
 *  - chain heads broadcast one-hot chain-wire signals when they promote
 *    or issue; the wires are pipelined upward one segment per cycle;
 *  - members decrement their delay by 2 per head promotion, and enter
 *    self-timed (1/cycle) mode once the head issues;
 *  - a load head that misses sends a suspend signal up its chain, and a
 *    resume signal on completion;
 *  - enhancements: full-segment pushdown (4.1), empty-segment dispatch
 *    bypass (4.2), left/right operand prediction (4.3), hit/miss
 *    prediction (4.4), and deadlock detection/recovery (4.5).
 *
 * Dispatch (tryInsert) makes the paper's one decision per instruction
 * (section 5): it reads the register table, picks the chains to follow
 * and the target segment, and then either admits the instruction or
 * stalls -- top active segment full, or no free chain wire -- leaving
 * the queue and the predictors' statistics untouched.
 *
 * Implementation note: chain-wire signals are kept in a per-chain log
 * with an explicit generation cycle and origin segment; an entry in
 * segment s applies a signal generated at cycle g from segment o once
 * the current cycle reaches g + (s - o).  This models the paper's
 * one-segment-per-cycle wire pipelining exactly while guaranteeing
 * that entries which move between segments (promotion, dispatch
 * bypass, deadlock recovery) never miss or double-apply a signal.
 *
 * Scheduling is event-driven (DESIGN.md sections 11 and 16).
 * Per-entry scheduler state lives in one pool of structure-of-arrays
 * slots numbered by dispatch position, so every segment is an
 * age-ordered bitmask and promotion is a relabel.  Promotion walks
 * the non-empty segments and works only on those with candidates (one
 * eligibility bit per slot, rewritten on every delay/segment change)
 * or pushdown pressure; self-timed countdowns walk countdown bitmask
 * words; chain-wire delivery takes the listeners from a calendar keyed
 * by the cycle their next signal arrives; logs expire from a
 * time-ordered queue; and a register-availability mask lets
 * independent instructions skip the dispatch plan entirely.  The
 * dispatch-stage register table is one more membership lane per
 * architectural register in the same pool, listening at the top
 * segment, so the table and the queue share one listener.  Per-cycle
 * cost is therefore proportional to scheduler *activity*, not queue
 * occupancy.  The invariant auditor (audit=1) re-derives every index
 * from a full rescan each cycle and counts disagreements.
 */

#ifndef SCIQ_IQ_SEGMENTED_IQ_HH
#define SCIQ_IQ_SEGMENTED_IQ_HH

#include <cstdint>
#include <vector>

#include "common/circular_queue.hh"
#include "iq/chain_allocator.hh"
#include "iq/iq_base.hh"

namespace sciq {

/**
 * Membership of an instruction in one dependence chain (paper 3.2/3.3).
 * Each IQ entry tracks: chain id, current delay value, the chain head's
 * segment location, and whether the chain is in self-timed mode.  A
 * register-table entry is the same record (delay = 2 * headSegment +
 * latency).
 */
struct ChainMembership
{
    ChainId chain = kNoChain;
    std::uint32_t gen = 0;   ///< chain-wire generation (reuse safety)
    std::uint64_t appliedSeq = 0;  ///< last chain-wire signal applied
    int delay = 0;
    int headSegment = 0;
    bool selfTimed = false;
    bool suspended = false;  ///< self-timing suspended (head missed)
};

class HitMissPredictor;
class LeftRightPredictor;

class SegmentedIq : public IqBase
{
  public:
    /**
     * @param hmp Optional hit/miss predictor (used when params.useHmp).
     * @param lrp Optional left/right predictor (used when params.useLrp).
     */
    SegmentedIq(const IqParams &params, const Scoreboard &scoreboard,
                const FuPool &fu, HitMissPredictor *hmp,
                LeftRightPredictor *lrp);

    /**
     * ConfigError naming `iq_size` and `seg_size` unless the queue is
     * a whole number of segments.
     */
    static void checkGeometry(const IqParams &params);

    bool tryInsert(const DynInstPtr &inst, Cycle cycle) override;
    void issueSelect(Cycle cycle, const TryIssue &try_issue) override;
    void tick(Cycle cycle, bool core_busy) override;
    void onLoadMiss(const DynInstPtr &inst, Cycle cycle) override;
    void onLoadComplete(const DynInstPtr &inst, Cycle cycle) override;
    void onWriteback(const DynInstPtr &inst, Cycle cycle) override;
    void onCommit(const DynInstPtr &inst) override;
    void onSquashInst(const DynInstPtr &inst) override;
    void squash(SeqNum youngest_kept) override;
    std::size_t occupancy() const override;

    /** The segmented design adds a dispatch pipeline stage (section 5). */
    unsigned extraDispatchCycles() const override { return 1; }

    unsigned
    numSegments() const
    {
        return static_cast<unsigned>(segCount.size());
    }

    std::size_t segmentOccupancy(unsigned k) const { return segCount[k]; }

    /** Promotion threshold of segment k (paper section 3.1). */
    static int threshold(unsigned k) { return 2 * (static_cast<int>(k) + 1); }

    unsigned chainsInUse() const { return chains.inUse(); }
    unsigned chainsPeak() const { return chains.peak(); }

    /**
     * Deterministic host-work counters (DESIGN.md section 16.5).
     * Plain integers outside the stats tree: they measure *host*
     * effort, which a faster scheduler lowers without changing any
     * simulated result.  Exact and noise-free, so CI can gate on them
     * where wall-clock would flake.
     */
    struct WorkCounters
    {
        std::uint64_t signalDeliveries = 0;  ///< chain-log entries examined
        std::uint64_t planCalls = 0;         ///< full computePlan executions
        std::uint64_t segmentsScanned = 0;   ///< promotion-pass segment visits
        std::uint64_t laneWordsTouched = 0;  ///< 8-byte sched words touched
    };
    const WorkCounters &workCounters() const { return work; }

    /**
     * Wall-clock per-substage accounting of the scheduler hot path,
     * enabled by setProfiling(true) (benches only; never affects
     * architected state).  All five substages are timed together on
     * one cycle in kProfileEvery, so the clock reads stay a small
     * share of what they measure; divide by `ticks` for a per-tick
     * cost.
     */
    struct TickProfile
    {
        double promoteSec = 0.0;    ///< tick step 1 (promotion pass)
        double deliverSec = 0.0;    ///< tick step 2 (signal delivery)
        double countdownSec = 0.0;  ///< tick step 3 (self-timed countdown)
        double issueSec = 0.0;      ///< issueSelect
        double dispatchSec = 0.0;   ///< tryInsert
        std::uint64_t ticks = 0;    ///< ticks timed
    };
    static constexpr Cycle kProfileEvery = 16;
    void setProfiling(bool on) { profiling = on; }
    const TickProfile &profile() const { return prof; }

    /** Test/debug views of a resident instruction's entry, read from
     *  the pool lanes. */
    int
    debugMembershipCount(const DynInstPtr &inst) const
    {
        return pool.memCount[slotOf(*inst)];
    }
    ChainMembership debugMembership(const DynInstPtr &inst, int m) const;
    int debugEffectiveDelay(const DynInstPtr &inst) const;
    int debugSegment(const DynInstPtr &inst) const;

    /** Segments currently powered (== numSegments unless resizing). */
    unsigned activeSegmentCount() const { return activeSegments; }

    void setAuditTracking(bool on) override;

    /** Pipe-trace-style dump of one segment's entries (audit panics). */
    void dumpSegment(std::ostream &os, unsigned k) const;

    /** Every segment plus chain-allocator state (watchdog dumps). */
    void dumpState(std::ostream &os) const override;

    // --- Statistics (Table 2, Figure 2 and section 6 text) ---------------
    stats::Scalar chainsCreated;
    stats::Scalar headsFromLoads;
    stats::Scalar twoOutstanding;     ///< insts w/ 2 pending operand chains
    stats::Scalar chainStalls;        ///< dispatch stalls: no free chain
    stats::Scalar promotions;
    stats::Scalar pushdownPromotions;
    stats::Scalar deadlockCycles;
    stats::Scalar deadlockRecoveries;
    stats::Average chainsInUseAvg;
    stats::Average seg0Occupancy;
    stats::Average seg0Ready;         ///< ready instructions in segment 0
    stats::Average dispatchSegment;   ///< bypass effectiveness

    // Dynamic-resizing / power-proxy statistics (section 7).
    stats::Scalar resizeGrows;
    stats::Scalar resizeShrinks;
    stats::Scalar segmentCyclesActive;  ///< sum over cycles of segments on
    stats::Average activeSegmentsAvg;

    // Scheduling-index statistics (section 11).
    stats::Scalar logPeak;       ///< peak per-chain signal-log length
    stats::Scalar dirtySegments; ///< segments visited by the promotion pass

  private:
    friend class Auditor;

    enum class SignalKind : std::uint8_t { Assert, Suspend, Resume };

    /** One chain-wire event, pipelined upward from originSegment. */
    struct LoggedSignal
    {
        std::uint64_t seq;
        Cycle cycle;
        int originSegment;
        SignalKind kind;
    };

    /**
     * Subscriber record of a resident's membership: names a pool slot,
     * not an object, so arming a chain's listeners never dereferences
     * a DynInst.  A slot keeps its index for the entry's whole
     * residency, so moves never rewrite the record; arming reads the
     * segment from the pool.
     */
    struct SoaSub
    {
        std::uint16_t slot;  ///< pool slot
        std::uint16_t mem;   ///< membership lane (0 or 1)
    };

    /**
     * A chain wire's signal log, which in-flight listeners consume, and
     * the subscriber index a signal arms.  Subscriber lists survive
     * wire reuse: stale-generation subscribers are skipped by the
     * generation check and unsubscribe through their normal lifecycle
     * (issue, squash, table overwrite).
     */
    struct ChainState
    {
        CircularQueue<LoggedSignal> log;
        std::vector<SoaSub> soaSubs;    ///< listening lanes
        bool armPending = false;        ///< on pendingArm
    };

    /**
     * A chain wire's authoritative scalars (16 bytes, four per cache
     * line), read by dispatch when a new member joins and by every
     * generation check, so neither touches the cold ChainState.
     */
    struct ChainHot
    {
        std::uint64_t seqCounter = 0;
        std::uint32_t gen = 0;
        std::int16_t headSegment = 0;
        std::uint8_t selfTimed = 0;   ///< head has issued
        std::uint8_t suspended = 0;
    };

    /** Undo record for squash recovery of a register-table lane. */
    struct Undo
    {
        SeqNum seq;
        RegIndex archDst;
        bool pending;           ///< the lane's memCount was 1
        ChainMembership prev;
    };

    /** The dispatch decision's chains and predictor reads (tryInsert). */
    struct Plan
    {
        ChainMembership memberships[2];
        int numMemberships = 0;
        bool needNewChain = false;
        bool isLoadHead = false;
        bool hadTwoOutstanding = false;
        bool usedLrp = false;
        bool lrpPickedLeft = false;
        bool usedHmp = false;
        bool hmpPredictedHit = false;
    };

    /** True once register r's table lane says its value is available. */
    bool regAvailable(RegIndex r) const;

    /** Predicted latency from issue to dependent-ready (section 3.3). */
    unsigned predictedLatency(const DynInst &inst) const;

    /**
     * Build the chain/membership plan for an instruction.  Reads the
     * predictors without counting; tryInsert counts the reads once the
     * instruction is admitted.
     */
    Plan computePlan(const DynInstPtr &inst) const;

    /** Dispatch target segment honouring the bypass rule (section 4.2). */
    int targetSegment() const;

    /** Chain id's log and listeners; grows chainHot alongside. */
    ChainState &stateOf(ChainId id);
    const ChainState &stateOf(ChainId id) const;

    /** Record a signal on a chain's wire (updates authoritative state). */
    void emitSignal(const DynInstPtr &head, SignalKind kind,
                    int origin_segment, Cycle cycle);
    /** As above, for the head's wire identity read from the pool. */
    void emitSignal(ChainId id, std::uint32_t gen, SignalKind kind,
                    int origin_segment, Cycle cycle);

    /** Begin the delayed release of a head's chain wire. */
    void releaseChain(const DynInstPtr &inst, Cycle cycle);

    // --- Slot pool (DESIGN.md section 16) --------------------------------
    // Scheduler state lives in one pool of robSize slots.  Slot i holds
    // the entry dispatched at a position congruent to i modulo the pool
    // size, so reading occupied slots circularly from the dispatch
    // cursor visits them in age order.  A segment is a bitmask over the
    // slots plus a count: promotion, pushdown and the deadlock recycle
    // flip two bits and relabel the slot without copying lane data.
    //
    // The dispatch-stage register table (section 3.3) follows: lane 0 of
    // slot poolSize + r is register r's entry, labelled with the top
    // segment (where the table listens) and in no segment mask; it is
    // pending while its memCount is 1.  It stores delay = 2 * headSeg +
    // latency, as a member does, so it shares the subscriber lists,
    // calendar keys, arming, delivery and countdown bits.  Subscriber
    // lists, countdown bits, the per-slot eligibility bits and the
    // register-availability mask are redundant views over the lanes;
    // every mutation site keeps them in sync and the auditor re-derives
    // them from a full rescan under audit=1.

    static constexpr std::uint16_t kFreeSlot = 0xffff;  ///< seg of a free slot
    static constexpr Cycle kNotDue = ~Cycle{0};  ///< listener is caught up

    struct SlotPool
    {
        // Membership lanes, [membership][slot]; slots past poolSize are
        // the register table's lanes.
        std::vector<std::int32_t> delay[2];
        std::vector<ChainId> chain[2];
        std::vector<std::uint32_t> gen[2];
        std::vector<std::uint64_t> applied[2];
        std::vector<std::int16_t> headSeg[2];
        std::vector<std::uint8_t> flags[2];   ///< kLaneSelfTimed|kLaneSuspended
        std::vector<std::int32_t> subIdx[2];  ///< back-ptr into soaSubs
        std::vector<Cycle> due[2];     ///< delivery cycle, kNotDue if none
        // The first unapplied log entry's cycle and origin segment, set
        // with `due`, so a move re-arms without reading the log.
        std::vector<Cycle> dueCycle[2];
        std::vector<std::int16_t> dueOrigin[2];
        std::vector<std::uint8_t> memCount;
        std::vector<std::uint16_t> seg;  ///< segment, kFreeSlot when free
        std::vector<std::uint64_t> cdBits[2];
        std::vector<std::uint64_t> cdSummary[2];  ///< non-empty cdBits words

        // Queue slots only.
        std::vector<RegIndex> src[2];  ///< scoreboard-gating operands
        std::vector<SeqNum> seq;       ///< kept after release (squash rewind)
        std::vector<ChainId> headChain;  ///< wire this entry heads
        std::vector<std::uint32_t> headGen;
        std::vector<DynInstPtr> inst;    ///< handle for issue and dumps

        std::vector<std::uint64_t> eligBits;  ///< 64-wide bitmask words
    };

    static constexpr std::uint8_t kLaneSelfTimed = 1;
    static constexpr std::uint8_t kLaneSuspended = 2;

    /** Effective (gating) delay of the entry at `slot`: max over lanes. */
    int laneEffDelay(unsigned slot) const;

    /** Set or clear `slot`'s promotion-eligibility bit. */
    void setLaneElig(unsigned slot, bool now);
    /** Re-evaluate the promotion predicate at the slot's segment. */
    void refreshLaneElig(unsigned slot);
    /** Bring register r's bit of regAvail up to its table lane. */
    void syncRegAvail(RegIndex r);
    /** After a lane's delay or flags changed: the eligibility bit of a
     *  queue slot, the availability bit of a table lane. */
    void laneChanged(unsigned slot);
    void syncLaneCd(unsigned slot, int mem);
    /** Set or clear membership `mem`'s countdown bit for `slot`. */
    void setCdBit(unsigned slot, int mem, bool on);

    /** Lane (slot, m) as a membership record. */
    ChainMembership laneMembership(unsigned slot, int m) const;
    /** Write lane (slot, m), subscribe it to its wire, sync its countdown
     *  bit; the caller arms it once the slot has its segment. */
    void setLane(unsigned slot, int m, const ChainMembership &mem);
    /** Unsubscribe lane (slot, m) and drop its countdown bit and due. */
    void dropLane(unsigned slot, int m);

    /** Register r's table lane. */
    unsigned regLane(RegIndex r) const { return poolSize + r; }
    /** Rewrite register r's table lane (pending or not) and arm it. */
    void writeRegLane(RegIndex r, bool pending, const ChainMembership &mem);

    /** Segment k's mask word w. */
    std::uint64_t &segWord(unsigned k, std::size_t w)
    {
        return segBits[k * poolWords + w];
    }
    std::uint64_t segWord(unsigned k, std::size_t w) const
    {
        return segBits[k * poolWords + w];
    }

    /** Label `slot` with segment `to` and set its bit there. */
    void soaPlace(unsigned slot, unsigned to);
    /** Clear `slot`'s bit in its segment (its label is kept). */
    void soaUnplace(unsigned slot);
    /** Release a slot and drop its references. */
    void soaLeaveSlot(unsigned slot);

    /**
     * Visit, in age order (circularly from the cursor), the slots whose
     * bit is set in `word(w)` until `visit(slot)` returns false.  Only
     * the words `summary` (one segment's row of segSummary) marks are
     * read, so `word` must be empty elsewhere.
     */
    template <class Word, class Visit>
    void forEachByAge(const std::uint64_t *summary, Word word,
                      Visit visit) const;

    /** Segment k's row of segSummary. */
    const std::uint64_t *segRow(unsigned k) const
    {
        return &segSummary[k * summaryWords];
    }

    /** Oldest (youngest) resident of segment k; k must be non-empty. */
    unsigned oldestIn(unsigned k) const;
    unsigned youngestIn(unsigned k) const;

    /**
     * Relabel `slots[0..n)` from segment `from` into the segment below,
     * in that order (heads assert their wires).
     */
    void soaPromote(unsigned from, const std::uint32_t *slots, std::size_t n,
                    Cycle cycle);

    // Arrival calendar (DESIGN.md section 16): each listener with an
    // unapplied log entry sits in the bucket of its due cycle, the
    // cycle that entry reaches its segment (never before the next
    // delivery pass), once its chain has been armed.  Keys name a
    // membership lane (slot << 1 | mem).

    /** Index of the first log entry past `applied`. */
    static std::size_t firstUnapplied(const ChainState &cs,
                                      std::uint64_t applied);
    /** Cycle at which `sig` reaches segment `seg`. */
    static Cycle arrivalAt(const LoggedSignal &sig, int seg);

    /** Put `key` in the bucket of max(at, next pass); returns that cycle. */
    Cycle schedule(Cycle at, std::uint32_t key);
    /** First log entry of `cs` past `applied`; nullptr if caught up. */
    static const LoggedSignal *firstPending(const ChainState &cs,
                                            std::uint64_t applied);
    /** Schedule membership (slot, m) at `sig`'s arrival at its segment. */
    void armLane(unsigned slot, int m, const LoggedSignal &sig);
    /** Recompute membership (slot, m)'s due cycle after it moved or joined. */
    void armMember(unsigned slot, int m);
    /**
     * Arm every caught-up current-generation listener of chain `id`,
     * which has signalled since the last delivery pass.
     */
    void armListeners(ChainId id);

    void soaDeliverMember(unsigned slot, int m, Cycle now);

    void soaInsert(const DynInstPtr &inst, int target, const Plan &plan);

    // tick() substages.
    void tickPromote(Cycle cycle);
    void tickDeliver(Cycle cycle);
    void tickCountdown();
    void runDeadlockRecovery(Cycle cycle);
    /** Step 5: drop log entries every listener has seen. */
    void expireLogs(Cycle horizon);

    /** Pool slot of a resident instruction (linear search; debug only). */
    unsigned slotOf(const DynInst &inst) const;

    /** All gating arch sources available in the table (regAvail hit)? */
    bool fastPlanEligible(const DynInst &inst) const;

    SlotPool pool;
    unsigned poolSize = 0;             ///< slots (the ROB capacity)
    std::size_t poolWords = 0;         ///< 64-bit words per slot mask
    unsigned cursor = 0;               ///< slot of the next dispatch
    std::vector<std::uint64_t> segBits;  ///< [segment][word] slot masks
    std::size_t summaryWords = 0;      ///< 64-bit words per summary
    /** [segment][summary word]: bit w set iff segment word w is non-zero. */
    std::vector<std::uint64_t> segSummary;
    std::vector<unsigned> segCount;    ///< residents per segment
    std::vector<ChainHot> chainHot;    ///< parallel to chainStates

    std::vector<std::vector<std::uint32_t>> calendar;  ///< due buckets
    Cycle calendarMask = 0;            ///< bucket count - 1
    Cycle lastPass = 0;                ///< cycle of the last delivery pass

    /** One logged signal's expiry record (tick step 5). */
    struct Expiry
    {
        Cycle cycle;
        ChainId chain;
    };
    CircularQueue<Expiry> expiry;      ///< in signal (= cycle) order
    /** Chains that signalled since the last pass, armed at its start. */
    std::vector<ChainId> pendingArm;

    /** Bit r: register r's table lane is available (regAvailable). */
    std::uint64_t regAvail = ~0ULL;

    // Promotion scratch (slots moved per round).
    std::vector<std::uint32_t> scratchMoves;

    mutable WorkCounters work;
    bool profiling = false;
    /** This cycle's substages are timed; set by issueSelect, the
     *  first of them the core runs in a cycle. */
    bool timedCycle = false;
    TickProfile prof;

    std::vector<unsigned> freePrevCycle;            ///< per segment

    std::vector<ChainState> chainStates;
    CircularQueue<std::pair<ChainId, Cycle>> chainDrainQueue;

    std::size_t totalOcc = 0;         ///< occupancy, O(1)

    CircularQueue<Undo> undoLog;

    mutable ChainAllocator chains;
    HitMissPredictor *hmp;
    LeftRightPredictor *lrp;

    unsigned issuedThisCycle = 0;
    unsigned promotedThisCycle = 0;
    unsigned activeSegments = 1;
    Cycle nextResizeCheck = 0;

    // Audit bookkeeping (setAuditTracking): what each tick's promotion
    // round actually used and did, so the auditor can re-check the
    // bound after the fact.  Deadlock-recovery moves are not counted.
    bool auditTracking = false;
    std::vector<unsigned> freePrevSnapshot;  ///< freePrevCycle at tick start
    std::vector<unsigned> promotedInto;      ///< promotions per destination
    std::vector<Plan> dispatchPlan;  ///< per slot, the plan it was inserted by
};

} // namespace sciq

#endif // SCIQ_IQ_SEGMENTED_IQ_HH
