/**
 * @file
 * Cycle-level invariant auditor (DESIGN.md section 9).
 *
 * When `SimConfig::audit` is set (config key `audit=1`), an Auditor is
 * attached to the core through its end-of-cycle hook and re-checks the
 * simulator's structural invariants every cycle:
 *
 *  - per-member chain delay values never go negative;
 *  - segment occupancy never exceeds segment capacity (and the queue
 *    never exceeds its total capacity);
 *  - promotions into a segment respect the previous-cycle free-entry
 *    bound and the issue width (deadlock-recovery force promotions are
 *    exempt, as section 4.5 specifies);
 *  - issue never exceeds the issue width;
 *  - chain-wire delivery is exact: a signal generated at segment o on
 *    cycle g is applied by every listener in segment s no later than
 *    cycle g + max(0, s - o) (the pipelined-wire timing), and never
 *    before; the register table's lanes listen at the top segment and
 *    get the same lane checks as a resident's memberships;
 *  - the DynInstPool's live-slot count stays within the in-flight
 *    window bound (catches storage leaks such as containers pinning
 *    recycled slots);
 *  - every incremental scheduling index (DESIGN.md section 11) agrees
 *    with a brute-force rescan of the authoritative state: the O(1)
 *    occupancy counters, the per-slot promotion-eligibility bits, the
 *    per-chain subscriber lists and their back-pointers, the self-timed
 *    countdown bits, the register-availability mask, the ideal queue's
 *    ready list, and the core's writeback-ring population;
 *  - the segmented queue's slot pool is consistent (each occupied slot
 *    in exactly one segment mask, labelled with it; each segment's count
 *    its popcount; slot order from the dispatch cursor is age order,
 *    and the oldest resident is no more dispatch positions behind the
 *    cursor than there are ROB entries at least as young;
 *    every subscriber record naming a live lane); every listener
 *    with an unapplied chain-wire signal is due, in the arrival
 *    calendar, no later than that signal's arrival; and every
 *    non-empty signal log has a log-expiry record by its front;
 *  - every MSHR waiter a cache fails in bulk (the whole retry batch
 *    without a per-miss retry) really has its line absent from a full
 *    MSHR file.
 *
 * Violations are accumulated into a `stats::Group` ("audit") so sweeps
 * can assert on them cheaply; with `auditPanic` (key `audit_panic=1`,
 * the default in assertion-enabled builds) the first violation panics
 * with a pipe-trace-style dump of the offending structure.
 */

#ifndef SCIQ_SIM_AUDIT_HH
#define SCIQ_SIM_AUDIT_HH

#include <cstdint>
#include <string>

#include "common/stats.hh"
#include "common/types.hh"

namespace sciq {

class IdealIq;
class OooCore;
class SegmentedIq;

class Auditor
{
  public:
    /**
     * @param panic_on_violation Panic (with a state dump) at the first
     *        violation instead of counting on.
     */
    explicit Auditor(bool panic_on_violation = false);

    Auditor(const Auditor &) = delete;
    Auditor &operator=(const Auditor &) = delete;

    /**
     * Wire this auditor into a core: registers the "audit" stats group
     * as a child of the core's group, enables audit bookkeeping in the
     * IQ, and installs the end-of-cycle hook that runs the checks.
     */
    void attach(OooCore &core);

    /** Run every invariant check against the core's current state. */
    void auditCycle(OooCore &core, Cycle cycle);

    std::uint64_t totalViolations() const { return total_; }

    stats::Group &statGroup() { return group_; }

    // Violation counters, one per audited invariant.
    stats::Scalar cyclesAudited;
    stats::Scalar negativeDelay;      ///< chain member delay below zero
    stats::Scalar segmentOverflow;    ///< occupancy above capacity
    stats::Scalar promotionBound;     ///< promotions above prev-cycle free
    stats::Scalar issueOverWidth;     ///< issued more than issueWidth
    stats::Scalar wireDelivery;       ///< chain-wire signal missed/early
    stats::Scalar poolBound;          ///< DynInstPool live slots leaked
    stats::Scalar occIndex;           ///< O(1) occupancy counter wrong
    stats::Scalar promoIndex;         ///< promotion-candidate index wrong
    stats::Scalar subIndex;           ///< chain subscriber index wrong
    stats::Scalar countdownIndex;     ///< self-timed countdown list wrong
    stats::Scalar readyIndex;         ///< ideal ready list wrong
    stats::Scalar wbRingBound;        ///< writeback ring population wrong
    stats::Scalar mshrWaitIndex;      ///< bulk-failed MSHR waiter wrong
    stats::Scalar arrivalIndex;       ///< listener not due by its next arrival
    stats::Scalar expiryIndex;        ///< signal log without expiry record

    /**
     * Test hook: set the promotion-eligibility bit of a segment-0
     * resident (the predicate never holds there) that waits on an
     * operand and has no countdown or signal due, so nothing rewrites
     * the bit before the next audit.  False if there is no such entry.
     */
    static bool corruptEligibilityBitForTest(SegmentedIq &iq);

    /**
     * Test hook: clear the countdown bit (summary kept consistent) of
     * a counting-down register-table lane with no delivery due and no
     * arming pending, so no signal rewrites the bit before the next
     * audit (a self-timed lane's head has issued, and its later signals
     * leave segment 0); only a dispatch to that register would.  False
     * if there is no such lane.
     */
    static bool corruptRegisterLaneForTest(SegmentedIq &iq);

    /** Violations warned about when not panicking; the rest only count. */
    static constexpr std::uint64_t kMaxWarnings = 5;

    /**
     * Count one violation of `invariant`.  `detail()` returns its
     * description (anything convertible to std::string) and runs only
     * when the violation is reported: thrown as an InvariantError under
     * panic, else warned about for the first kMaxWarnings — a faulty
     * queue can violate an invariant every cycle, and a detail may dump
     * a whole segment.
     */
    template <typename Detail>
    void
    violation(stats::Scalar &counter, const char *invariant, Cycle cycle,
              Detail &&detail)
    {
        counter.inc();
        ++total_;
        if (panicOnViolation_ || total_ <= kMaxWarnings)
            report(invariant, cycle, detail());
    }

  private:
    /** Throw (under panic) or warn about one violation. */
    void report(const char *invariant, Cycle cycle,
                const std::string &detail);

    void auditSegmented(SegmentedIq &iq, Cycle cycle);
    void auditDispatchWindow(const SegmentedIq &iq, const OooCore &core,
                             Cycle cycle);
    void auditIdeal(IdealIq &iq, Cycle cycle);

    bool panicOnViolation_;
    std::uint64_t total_ = 0;
    std::uint64_t mshrWaitSeen_ = 0;  ///< cache disagreements reported so far
    stats::Group group_;
};

} // namespace sciq

#endif // SCIQ_SIM_AUDIT_HH
