/**
 * @file
 * Unit tests for the segmented dependence-chain instruction queue -
 * the paper's core contribution.  Covers chain creation policy (3.4),
 * delay-value maintenance and wire pipelining (3.2/3.3), promotion
 * thresholds (3.1), pushdown (4.1), dispatch bypass (4.2), LRP (4.3),
 * HMP (4.4) and deadlock recovery (4.5).
 *
 * Plus lane-level torture at segment boundaries: tiny segments driven
 * through chain signals, suspends, squashes and deadlock recovery, with
 * every step's observable state written to a transcript that must equal
 * tests/golden/iq_torture/<case>.txt.  Those transcripts were recorded
 * from the object-per-entry reference engine this class carried beside
 * the slot-pool engine until the two were merged.  A missing transcript
 * is recorded from the current engine and its case fails once, so to
 * regenerate after an intentional scheduler change, delete the files
 * and run the binary twice.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "branch/hit_miss_predictor.hh"
#include "branch/left_right_predictor.hh"
#include "iq/segmented_iq.hh"
#include "iq_harness.hh"

using namespace sciq;
using namespace sciq::test;

namespace {

struct SegFixture : public ::testing::Test
{
    SegFixture() : scoreboard(128), rec(scoreboard)
    {
        params.numEntries = 16;
        params.segmentSize = 4;  // 4 segments
        params.issueWidth = 4;
        params.maxChains = -1;
        params.enableBypass = true;
        params.enablePushdown = true;
        params.predictedLoadLatency = 4;
    }

    std::unique_ptr<SegmentedIq>
    makeIq()
    {
        return std::make_unique<SegmentedIq>(params, scoreboard, fu, &hmp,
                                             &lrp);
    }

    /** Dispatch helper mirroring the core: insert, then clear dst. */
    void
    dispatch(SegmentedIq &iq, const DynInstPtr &inst)
    {
        ASSERT_TRUE(iq.tryInsert(inst, cycle)) << "seq " << inst->seq;
        if (inst->physDst != kInvalidReg)
            scoreboard.clearReady(inst->physDst);
    }

    void
    tick(SegmentedIq &iq, bool busy = true)
    {
        iq.tick(++cycle, busy);
    }

    IqParams params;
    Scoreboard scoreboard;
    FuPool fu;
    HitMissPredictor hmp{64};
    LeftRightPredictor lrp{64};
    IssueRecorder rec;
    Cycle cycle = 0;
};

} // namespace

TEST_F(SegFixture, ThresholdsAreTwoPerSegment)
{
    EXPECT_EQ(SegmentedIq::threshold(0), 2);
    EXPECT_EQ(SegmentedIq::threshold(1), 4);
    EXPECT_EQ(SegmentedIq::threshold(2), 6);
    EXPECT_EQ(SegmentedIq::threshold(7), 16);
}

TEST_F(SegFixture, LoadCreatesChainHead)
{
    auto iq = makeIq();
    auto load = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load);
    EXPECT_NE(load->seg.headedChain, kNoChain);
    EXPECT_EQ(iq->chainsCreated.value(), 1.0);
    EXPECT_EQ(iq->headsFromLoads.value(), 1.0);
    EXPECT_EQ(iq->chainsInUse(), 1u);
}

TEST_F(SegFixture, NonLoadWithReadyOperandsHasNoChain)
{
    auto iq = makeIq();
    auto add = makeInst(1, Opcode::ADD, intReg(3), intReg(1), intReg(2));
    dispatch(*iq, add);
    EXPECT_EQ(add->seg.headedChain, kNoChain);
    EXPECT_EQ(iq->debugMembershipCount(add), 0);
    EXPECT_EQ(iq->chainsCreated.value(), 0.0);
}

TEST_F(SegFixture, HmpPredictedHitSuppressesChain)
{
    params.useHmp = true;
    auto iq = makeIq();
    const Addr trained_pc = 0x1000 + 1 * kInstBytes;  // seq 1's pc
    for (int i = 0; i < 15; ++i)
        hmp.update(trained_pc, true);

    auto load = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load);
    EXPECT_EQ(load->seg.headedChain, kNoChain);
    EXPECT_TRUE(load->hmpUsed);
    EXPECT_TRUE(load->hmpPredictedHit);
    EXPECT_EQ(iq->chainsCreated.value(), 0.0);

    // An untrained load still heads a chain.
    auto load2 = makeInst(2, Opcode::LD, intReg(4), intReg(1));
    dispatch(*iq, load2);
    EXPECT_NE(load2->seg.headedChain, kNoChain);
}

TEST_F(SegFixture, DependentJoinsProducersChainWithPredictedDelay)
{
    auto iq = makeIq();
    auto load = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load);
    auto dep = makeInst(2, Opcode::ADD, intReg(3), intReg(2), intReg(1));
    dispatch(*iq, dep);
    ASSERT_EQ(iq->debugMembershipCount(dep), 1);
    const ChainMembership m = iq->debugMembership(dep, 0);
    EXPECT_EQ(m.chain, load->seg.headedChain);
    // Head in segment 0 (bypass put the load there): 2*0 + 4.
    EXPECT_EQ(m.delay, 4);
    EXPECT_EQ(m.headSegment, 0);
    EXPECT_FALSE(m.selfTimed);
}

TEST_F(SegFixture, TransitiveDelayAccumulatesExecutionLatency)
{
    auto iq = makeIq();
    auto load = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load);
    auto mul = makeInst(2, Opcode::FMUL, fpReg(3), fpReg(2), fpReg(1));
    mul->staticInst.rs1 = intReg(2);  // depend on the load
    mul->archSrc = mul->staticInst.srcRegs();
    mul->physSrc = mul->archSrc;
    dispatch(*iq, mul);
    auto dep = makeInst(3, Opcode::FADD, fpReg(4), fpReg(3), fpReg(1));
    dispatch(*iq, dep);
    ASSERT_EQ(iq->debugMembershipCount(dep), 1);
    // load(4) + fmul(4) behind the same chain head.
    EXPECT_EQ(iq->debugMembership(dep, 0).delay, 8);
    EXPECT_EQ(iq->debugMembership(dep, 0).chain, load->seg.headedChain);
}

TEST_F(SegFixture, BypassTargetsHighestNonEmptySegment)
{
    auto iq = makeIq();
    auto first = makeInst(1, Opcode::NOP);
    dispatch(*iq, first);
    // Empty queue: straight to the bottom segment.
    EXPECT_EQ(iq->debugSegment(first), 0);
    for (SeqNum s = 2; s <= 4; ++s)
        dispatch(*iq, makeInst(s, Opcode::NOP));
    // Segment 0 now full; next insert lands in segment 1.
    auto fifth = makeInst(5, Opcode::NOP);
    dispatch(*iq, fifth);
    EXPECT_EQ(iq->debugSegment(fifth), 1);
}

TEST_F(SegFixture, NoBypassDispatchesToTop)
{
    params.enableBypass = false;
    auto iq = makeIq();
    auto inst = makeInst(1, Opcode::NOP);
    dispatch(*iq, inst);
    EXPECT_EQ(iq->debugSegment(inst), 3);
}

TEST_F(SegFixture, ReadyInstructionPromotesOneSegmentPerCycle)
{
    params.enableBypass = false;
    auto iq = makeIq();
    auto inst = makeInst(1, Opcode::NOP);
    dispatch(*iq, inst);
    EXPECT_EQ(iq->debugSegment(inst), 3);
    tick(*iq);
    EXPECT_EQ(iq->debugSegment(inst), 2);
    tick(*iq);
    EXPECT_EQ(iq->debugSegment(inst), 1);
    tick(*iq);
    EXPECT_EQ(iq->debugSegment(inst), 0);
    iq->issueSelect(cycle, rec.acceptAll());
    ASSERT_EQ(rec.issued.size(), 1u);
}

TEST_F(SegFixture, MemberDelayFollowsHeadWithWirePipelining)
{
    params.enableBypass = false;
    auto iq = makeIq();
    auto load = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load);
    auto dep = makeInst(2, Opcode::ADD, intReg(3), intReg(2), intReg(1));
    dispatch(*iq, dep);
    ASSERT_EQ(iq->debugMembershipCount(dep), 1);
    // Head dispatched into segment 3: delay = 2*3 + 4 = 10.
    EXPECT_EQ(iq->debugMembership(dep, 0).delay, 10);

    // Head promotes 3->2; the member (in segment 3) sees the wire the
    // same cycle the head leaves its segment.
    tick(*iq);
    EXPECT_EQ(iq->debugSegment(load), 2);
    EXPECT_EQ(iq->debugMembership(dep, 0).delay, 8);
    EXPECT_EQ(iq->debugMembership(dep, 0).headSegment, 2);

    // Subsequent assertions reach segment 3 one cycle per segment of
    // distance, so the member's view lags the head's true position.
    int last_delay = 8;
    for (int i = 0; i < 12 && !iq->debugMembership(dep, 0).selfTimed;
         ++i) {
        tick(*iq);
        iq->issueSelect(cycle, rec.acceptAll());  // head issues from 0
        EXPECT_LE(iq->debugMembership(dep, 0).delay, last_delay);
        last_delay = iq->debugMembership(dep, 0).delay;
    }
    EXPECT_TRUE(iq->debugMembership(dep, 0).selfTimed);
}

TEST_F(SegFixture, SelfTimedMemberCountsDownAndIssues)
{
    auto iq = makeIq();
    auto load = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load);
    auto dep = makeInst(2, Opcode::ADD, intReg(3), intReg(2), intReg(1));
    dispatch(*iq, dep);

    iq->issueSelect(cycle, rec.acceptAll());  // load issues (ready)
    ASSERT_EQ(rec.issued.size(), 1u);
    tick(*iq);  // assert delivered at segment 0; member self-times
    EXPECT_TRUE(iq->debugMembership(dep, 0).selfTimed);
    EXPECT_EQ(iq->debugMembership(dep, 0).delay, 3);  // 4 - first countdown
    for (int i = 0; i < 3; ++i)
        tick(*iq);
    EXPECT_EQ(iq->debugMembership(dep, 0).delay, 0);

    // Once the value arrives the member issues from segment 0.
    scoreboard.setReady(intReg(2));
    iq->issueSelect(cycle, rec.acceptAll());
    EXPECT_EQ(rec.issued.size(), 2u);
}

TEST_F(SegFixture, SuspendStopsCountdownResumeRestarts)
{
    auto iq = makeIq();
    auto load = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load);
    auto dep = makeInst(2, Opcode::ADD, intReg(3), intReg(2), intReg(1));
    dispatch(*iq, dep);

    iq->issueSelect(cycle, rec.acceptAll());
    tick(*iq);  // self-timed, delay 3
    ASSERT_TRUE(iq->debugMembership(dep, 0).selfTimed);

    // The load misses: suspend propagates on the chain wire (3.4).
    iq->onLoadMiss(load, cycle);
    tick(*iq);
    EXPECT_TRUE(iq->debugMembership(dep, 0).suspended);
    const int frozen = iq->debugMembership(dep, 0).delay;
    for (int i = 0; i < 5; ++i)
        tick(*iq);
    EXPECT_EQ(iq->debugMembership(dep, 0).delay, frozen);

    // Data returns: resume self-timing.
    iq->onLoadComplete(load, cycle);
    tick(*iq);
    EXPECT_FALSE(iq->debugMembership(dep, 0).suspended);
    tick(*iq);
    EXPECT_LT(iq->debugMembership(dep, 0).delay, frozen);
}

TEST_F(SegFixture, TwoOutstandingOperandsMakeNewChainHead)
{
    auto iq = makeIq();
    auto load_a = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    auto load_b = makeInst(2, Opcode::LD, intReg(3), intReg(1));
    dispatch(*iq, load_a);
    dispatch(*iq, load_b);
    auto add = makeInst(3, Opcode::ADD, intReg(4), intReg(2), intReg(3));
    dispatch(*iq, add);
    EXPECT_EQ(iq->debugMembershipCount(add), 2);
    EXPECT_NE(add->seg.headedChain, kNoChain);
    EXPECT_TRUE(add->hadTwoOutstanding);
    EXPECT_EQ(iq->twoOutstanding.value(), 1.0);
    EXPECT_EQ(iq->chainsInUse(), 3u);
}

TEST_F(SegFixture, SameChainOperandsMergeToOneMembership)
{
    auto iq = makeIq();
    auto load = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load);
    auto dep = makeInst(2, Opcode::ADDI, intReg(3), intReg(2), kInvalidReg);
    dep->staticInst.imm = 1;
    dispatch(*iq, dep);
    // Both operands of `add` come (transitively) from the same chain.
    auto add = makeInst(3, Opcode::ADD, intReg(4), intReg(2), intReg(3));
    dispatch(*iq, add);
    EXPECT_EQ(iq->debugMembershipCount(add), 1);
    EXPECT_EQ(add->seg.headedChain, kNoChain);
    EXPECT_FALSE(add->hadTwoOutstanding);
    // Tracks the *later* operand: load(4) + addi(1) = 5.
    EXPECT_EQ(iq->debugMembership(add, 0).delay, 5);
}

TEST_F(SegFixture, LrpRestrictsToOneChainAndNoNewHead)
{
    params.useLrp = true;
    auto iq = makeIq();
    auto load_a = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    auto load_b = makeInst(2, Opcode::LD, intReg(3), intReg(1));
    dispatch(*iq, load_a);
    dispatch(*iq, load_b);

    const Addr add_pc = 0x1000 + 3 * kInstBytes;
    for (int i = 0; i < 4; ++i)
        lrp.update(add_pc, false);  // right operand arrives later

    auto add = makeInst(3, Opcode::ADD, intReg(4), intReg(2), intReg(3));
    dispatch(*iq, add);
    EXPECT_EQ(iq->debugMembershipCount(add), 1);
    EXPECT_EQ(add->seg.headedChain, kNoChain);
    EXPECT_TRUE(add->lrpUsed);
    EXPECT_FALSE(add->lrpPredictedLeft);
    EXPECT_EQ(iq->debugMembership(add, 0).chain, load_b->seg.headedChain);
    EXPECT_EQ(iq->chainsInUse(), 2u);  // no third chain
}

TEST_F(SegFixture, ChainExhaustionStallsDispatch)
{
    params.maxChains = 1;
    auto iq = makeIq();
    auto load_a = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load_a);
    auto load_b = makeInst(2, Opcode::LD, intReg(3), intReg(1));
    EXPECT_FALSE(iq->tryInsert(load_b, cycle));
    EXPECT_GT(iq->chainStalls.value(), 0.0);
    EXPECT_EQ(iq->occupancy(), 1u);
    // A chainless instruction still dispatches.
    auto nop = makeInst(3, Opcode::NOP);
    EXPECT_TRUE(iq->tryInsert(nop, cycle));
    EXPECT_EQ(iq->occupancy(), 2u);
    EXPECT_EQ(iq->chainsInUse(), 1u);
}

TEST_F(SegFixture, ChainFreedAfterWritebackDrain)
{
    params.maxChains = 1;
    auto iq = makeIq();
    auto load = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load);
    iq->issueSelect(cycle, rec.acceptAll());
    iq->onLoadComplete(load, cycle);
    iq->onWriteback(load, cycle);
    EXPECT_EQ(iq->chainsInUse(), 1u);  // still draining
    // After the wire-drain delay the chain wire is reusable.
    for (unsigned i = 0; i < iq->numSegments() + 3; ++i)
        tick(*iq);
    EXPECT_EQ(iq->chainsInUse(), 0u);
    auto load_b = makeInst(2, Opcode::LD, intReg(3), intReg(1));
    EXPECT_TRUE(iq->tryInsert(load_b, cycle));
    EXPECT_NE(load_b->seg.headedChain, kNoChain);
    EXPECT_EQ(iq->chainsInUse(), 1u);
}

TEST_F(SegFixture, SquashRemovesInstructionsAndRestoresTable)
{
    auto iq = makeIq();
    auto nop = makeInst(1, Opcode::NOP);
    dispatch(*iq, nop);
    auto load = makeInst(2, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load);
    auto dep = makeInst(3, Opcode::ADD, intReg(3), intReg(2), intReg(1));
    dispatch(*iq, dep);
    EXPECT_EQ(iq->occupancy(), 3u);
    EXPECT_EQ(iq->chainsInUse(), 1u);

    // Squash the load and its dependent (youngest first, as the core
    // does), keeping only seq 1.
    iq->onSquashInst(dep);
    iq->onSquashInst(load);
    iq->squash(1);
    EXPECT_EQ(iq->occupancy(), 1u);

    // The register info entry for r2 must be restored: a new reader of
    // r2 sees an available operand (pre-load state), not the squashed
    // load's chain.
    scoreboard.setReady(intReg(2));
    auto reader = makeInst(4, Opcode::ADD, intReg(4), intReg(2), intReg(1));
    dispatch(*iq, reader);
    EXPECT_EQ(iq->debugMembershipCount(reader), 0);
}

TEST_F(SegFixture, PromotionLimitedByIssueWidthBandwidth)
{
    params.enableBypass = false;
    params.issueWidth = 2;
    auto iq = makeIq();
    // Six ready instructions in the top segment? Top holds only 4.
    std::vector<DynInstPtr> insts;
    for (SeqNum s = 1; s <= 4; ++s) {
        auto inst = makeInst(s, Opcode::NOP);
        dispatch(*iq, inst);
        insts.push_back(inst);
    }
    tick(*iq);
    // Only issueWidth (2) promoted; the oldest two go first.
    EXPECT_EQ(iq->debugSegment(insts[0]), 2);
    EXPECT_EQ(iq->debugSegment(insts[1]), 2);
    EXPECT_EQ(iq->debugSegment(insts[2]), 3);
    EXPECT_EQ(iq->debugSegment(insts[3]), 3);
}

TEST_F(SegFixture, PromotionLimitedByPreviousCycleFreeCount)
{
    params.enableBypass = true;
    auto iq = makeIq();
    // Fill segment 0 with unready loads (they never issue).
    std::vector<DynInstPtr> blockers;
    scoreboard.clearReady(intReg(1));
    for (SeqNum s = 1; s <= 4; ++s) {
        auto ld = makeInst(s, Opcode::LD, intReg(20 + s), intReg(1));
        dispatch(*iq, ld);
        EXPECT_EQ(iq->debugSegment(ld), 0);
        blockers.push_back(ld);
    }
    // A ready instruction lands in segment 1 and cannot promote while
    // segment 0 shows no free entries.
    auto ready = makeInst(5, Opcode::NOP);
    dispatch(*iq, ready);
    EXPECT_EQ(iq->debugSegment(ready), 1);
    tick(*iq);
    EXPECT_EQ(iq->debugSegment(ready), 1);

    // Make one blocker issue; the free entry becomes visible to the
    // promotion logic one cycle later (previous-cycle rule).
    scoreboard.setReady(intReg(1));
    iq->issueSelect(cycle, rec.acceptAll());
    EXPECT_GE(rec.issued.size(), 1u);
    tick(*iq);  // free count recorded this cycle
    iq->issueSelect(cycle, rec.rejectAll());  // no further issue
    tick(*iq);
    EXPECT_EQ(iq->debugSegment(ready), 0);
}

TEST_F(SegFixture, PushdownMovesIneligibleWorkDownward)
{
    params.numEntries = 32;
    params.segmentSize = 16;  // 2 segments
    params.issueWidth = 4;
    params.enableBypass = false;
    auto iq = makeIq();

    // A never-ready load heads a chain; its dependents are ineligible.
    scoreboard.clearReady(intReg(1));
    auto load = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load);
    tick(*iq);
    tick(*iq);  // the load promotes to segment 0 (delay 0) and waits

    std::vector<DynInstPtr> deps;
    for (SeqNum s = 2; s <= 14; ++s) {  // 13 insts: free(seg1)=3 < IW
        auto dep = makeInst(s, Opcode::ADD, intReg(20 + s), intReg(2),
                            intReg(3));
        dispatch(*iq, dep);
        deps.push_back(dep);
    }
    ASSERT_EQ(iq->segmentOccupancy(1), 13u);
    tick(*iq);
    // Segment 1 nearly full, segment 0 nearly empty: pushdown kicks in
    // even though no dependent is eligible by delay value.
    EXPECT_GT(iq->pushdownPromotions.value(), 0.0);
    EXPECT_GT(iq->segmentOccupancy(0), 1u);
}

TEST_F(SegFixture, DeadlockDetectedAndRecovered)
{
    params.numEntries = 4;
    params.segmentSize = 2;  // 2 tiny segments
    auto iq = makeIq();

    // A never-ready load plus dependents fill both segments; nothing
    // can issue or promote and nothing is in flight -> deadlock.
    scoreboard.clearReady(intReg(1));
    auto load = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load);
    for (SeqNum s = 2; s <= 4; ++s) {
        auto dep = makeInst(s, Opcode::ADD, intReg(10 + s), intReg(2),
                            intReg(3));
        dispatch(*iq, dep);
    }
    EXPECT_EQ(iq->occupancy(), 4u);

    for (int i = 0; i < 4; ++i) {
        iq->issueSelect(cycle, rec.acceptAll());
        iq->tick(++cycle, /*core_busy=*/false);
    }
    EXPECT_GT(iq->deadlockCycles.value(), 0.0);
    EXPECT_GT(iq->deadlockRecoveries.value(), 0.0);

    // Recovery must preserve occupancy (nothing lost) and keep the
    // queue functional: making the load ready drains everything.
    EXPECT_EQ(iq->occupancy(), 4u);
    scoreboard.setReady(intReg(1));
    scoreboard.setReady(intReg(2));
    scoreboard.setReady(intReg(3));
    for (int i = 0; i < 20 && iq->occupancy() > 0; ++i) {
        iq->issueSelect(cycle, rec.acceptAll());
        iq->tick(++cycle, false);
    }
    EXPECT_EQ(iq->occupancy(), 0u);
}

TEST_F(SegFixture, NoDeadlockFlagWhileCoreBusy)
{
    params.numEntries = 4;
    params.segmentSize = 2;
    auto iq = makeIq();
    scoreboard.clearReady(intReg(1));
    auto load = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load);
    for (int i = 0; i < 4; ++i)
        iq->tick(++cycle, /*core_busy=*/true);
    EXPECT_EQ(iq->deadlockCycles.value(), 0.0);
}

TEST_F(SegFixture, Seg0AdmitsDelayZeroAndOne)
{
    // Paper 3.1: delay 1 is allowed into the bottom segment to enable
    // back-to-back issue of single-cycle dependent pairs.
    params.enableBypass = false;
    params.numEntries = 8;
    params.segmentSize = 4;  // 2 segments
    auto iq = makeIq();
    auto prod = makeInst(1, Opcode::ADD, intReg(2), intReg(1), intReg(1));
    dispatch(*iq, prod);
    auto dep = makeInst(2, Opcode::ADD, intReg(3), intReg(2), intReg(2));
    dispatch(*iq, dep);
    // The producer's operands were available, so its result is tracked
    // as a pure countdown: the dependent starts at delay = exec latency
    // = 1, which the bottom segment's threshold of 2 admits - this is
    // what enables back-to-back single-cycle dependent pairs.
    ASSERT_EQ(iq->debugMembershipCount(dep), 1);
    EXPECT_EQ(iq->debugMembership(dep, 0).delay, 1);
    EXPECT_TRUE(iq->debugMembership(dep, 0).selfTimed);
    tick(*iq);
    EXPECT_EQ(iq->debugSegment(prod), 0);
    EXPECT_EQ(iq->debugSegment(dep), 0);  // delay 1 < threshold 2
}

TEST_F(SegFixture, OccupancyAndStatsSampled)
{
    auto iq = makeIq();
    dispatch(*iq, makeInst(1, Opcode::NOP));
    dispatch(*iq, makeInst(2, Opcode::NOP));
    tick(*iq);
    EXPECT_EQ(iq->occupancyAvg.samples(), 1u);
    EXPECT_DOUBLE_EQ(iq->occupancyAvg.value(), 2.0);
    EXPECT_EQ(iq->instsInserted.value(), 2.0);
}

TEST_F(SegFixture, TwoChainInstructionGatedByLaterChain)
{
    // Paper 3.2: an instruction on two chains "dynamically chooses the
    // larger value (indicating the later-arriving operand)".
    params.enableBypass = false;
    auto iq = makeIq();
    scoreboard.clearReady(intReg(1));
    auto fast_load = makeInst(1, Opcode::LD, intReg(2), intReg(3));
    auto slow_load = makeInst(2, Opcode::LD, intReg(4), intReg(1));
    dispatch(*iq, fast_load);
    dispatch(*iq, slow_load);
    auto add = makeInst(3, Opcode::ADD, intReg(5), intReg(2), intReg(4));
    dispatch(*iq, add);
    ASSERT_EQ(iq->debugMembershipCount(add), 2);

    // Issue only the fast head: one membership self-times toward zero,
    // but the other (slow) chain still pins the effective delay, so
    // the instruction must not reach segment 0.
    for (int i = 0; i < 12; ++i) {
        iq->issueSelect(cycle, [&](const DynInstPtr &inst) {
            return inst == fast_load;
        });
        tick(*iq);
    }
    int fast_delay = -1, slow_delay = -1;
    for (int m = 0; m < 2; ++m) {
        if (iq->debugMembership(add, m).chain == fast_load->seg.headedChain)
            fast_delay = iq->debugMembership(add, m).delay;
        else
            slow_delay = iq->debugMembership(add, m).delay;
    }
    EXPECT_EQ(fast_delay, 0);
    EXPECT_GT(slow_delay, 1);
    EXPECT_GT(iq->debugSegment(add), 0);
}

TEST_F(SegFixture, HmpMispredictionFloodsSegmentZero)
{
    // Paper 4.4: "predicting a miss reference as a hit ... will cause
    // a potentially large number of instructions dependent on the load
    // value to flood segment 0 well in advance of becoming ready."
    // Verify the mechanism (not the performance): with no chain, the
    // dependants count down and promote regardless of the load.
    params.useHmp = true;
    auto iq = makeIq();
    const Addr load_pc = 0x1000 + 1 * kInstBytes;
    for (int i = 0; i < 15; ++i)
        hmp.update(load_pc, true);  // train: predicted hit

    scoreboard.clearReady(intReg(1));  // the load can never issue
    auto load = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load);
    ASSERT_EQ(load->seg.headedChain, kNoChain);  // HMP said hit

    std::vector<DynInstPtr> deps;
    for (SeqNum s = 2; s <= 7; ++s) {
        auto dep = makeInst(s, Opcode::ADD, intReg(10 + s), intReg(2),
                            intReg(3));
        dispatch(*iq, dep);
        deps.push_back(dep);
    }
    // Countdown memberships expire and the dependants flood segment 0
    // even though the load never issued; once it fills with non-ready
    // instructions the rest wedge behind it - the paper's "performance
    // degrades severely" scenario.
    for (int i = 0; i < 10; ++i)
        tick(*iq);
    EXPECT_EQ(iq->segmentOccupancy(0), params.segmentSize);
    unsigned ready = 0, in_seg0 = 0;
    for (const auto &dep : deps) {
        in_seg0 += iq->debugSegment(dep) == 0 ? 1 : 0;
        ready += iq->operandsReady(*dep) ? 1 : 0;
    }
    EXPECT_GE(in_seg0, 3u);   // the flood reached the issue buffer...
    EXPECT_EQ(ready, 0u);     // ...but none of them can actually issue
}

// ---------------------------------------------------------------------
// Lane-level torture at segment boundaries (see the file comment).

namespace {

/** One queue with its own register/FU universe, driven by a script. */
class TortureRig
{
  public:
    explicit TortureRig(const IqParams &params)
        : iq_(std::make_unique<SegmentedIq>(params, scoreboard_, fu_, &hmp_,
                                            &lrp_))
    {
    }

    ~TortureRig() { checkTranscript(); }

    /** Dispatch one instruction (if accepted). */
    bool
    dispatch(SeqNum seq, Opcode op, RegIndex rd = kInvalidReg,
             RegIndex rs1 = kInvalidReg, RegIndex rs2 = kInvalidReg)
    {
        DynInstPtr inst = makeInst(seq, op, rd, rs1, rs2);
        if (!iq_->tryInsert(inst, cycle_)) {
            record("refused", seq);
            return false;
        }
        if (inst->physDst != kInvalidReg)
            scoreboard_.clearReady(inst->physDst);
        live_[seq] = inst;
        record("dispatch", seq);
        return true;
    }

    /** One issue round with an issue budget. */
    std::vector<SeqNum>
    issue(unsigned budget, bool complete = true)
    {
        std::vector<SeqNum> got;
        iq_->issueSelect(cycle_, [&](const DynInstPtr &inst) {
            if (got.size() >= budget)
                return false;
            got.push_back(inst->seq);
            inst->issued = true;
            if (complete && inst->physDst != kInvalidReg)
                scoreboard_.setReady(inst->physDst);
            issued_[inst->seq] = inst;  // for load miss/complete scripting
            return true;
        });
        for (SeqNum s : got)
            live_.erase(s);
        record("issue", 0, got);
        return got;
    }

    void
    tick(bool busy = true)
    {
        iq_->tick(++cycle_, busy);
        record("tick", 0);
    }

    void
    loadMiss(SeqNum seq)
    {
        auto it = issued_.find(seq);
        ASSERT_NE(it, issued_.end());
        iq_->onLoadMiss(it->second, cycle_);
        record("loadMiss", seq);
    }

    void
    loadComplete(SeqNum seq, bool writeback = true)
    {
        auto it = issued_.find(seq);
        ASSERT_NE(it, issued_.end());
        iq_->onLoadComplete(it->second, cycle_);
        if (writeback) {
            setReady(it->second->physDst);
            iq_->onWriteback(it->second, cycle_);
        }
        record("loadComplete", seq);
    }

    /** Squash everything younger than `keep` (youngest first). */
    void
    squash(SeqNum keep)
    {
        std::vector<SeqNum> doomed;
        for (const auto &[seq, inst] : live_) {
            if (seq > keep)
                doomed.push_back(seq);
        }
        for (auto it = doomed.rbegin(); it != doomed.rend(); ++it)
            iq_->onSquashInst(live_[*it]);
        iq_->squash(keep);
        for (SeqNum s : doomed)
            live_.erase(s);
        record("squash", keep);
    }

    void
    setReady(RegIndex r)
    {
        if (r != kInvalidReg)
            scoreboard_.setReady(r);
    }

    /** Model an outstanding producer outside the queue. */
    void clearReady(RegIndex r) { scoreboard_.clearReady(r); }

    /** Tick/issue until `seq` issues (it must, within the bound). */
    void
    issueUntil(SeqNum seq, bool complete, unsigned max_cycles = 30)
    {
        for (unsigned i = 0; i < max_cycles; ++i) {
            std::vector<SeqNum> got = issue(1, complete);
            if (!got.empty() && got.front() == seq)
                return;
            EXPECT_TRUE(got.empty()) << "unexpected issue of "
                                     << got.front();
            tick();
        }
        FAIL() << "seq " << seq << " never issued";
    }

    /** Tick until empty (or a bound), issuing greedily. */
    void
    drain(unsigned max_cycles = 200)
    {
        for (unsigned i = 0; i < max_cycles && occupancy() > 0; ++i) {
            issue(8);
            tick();
        }
        EXPECT_EQ(occupancy(), 0u) << "failed to drain";
    }

    std::size_t occupancy() const { return iq_->occupancy(); }
    std::size_t chainsInUse() const { return iq_->chainsInUse(); }
    int segmentOf(SeqNum seq) { return iq_->debugSegment(live_.at(seq)); }
    int
    delayOf(SeqNum seq)
    {
        return iq_->debugEffectiveDelay(live_.at(seq));
    }

    /** Chain wire an instruction was given as head at dispatch. */
    ChainId
    headedChain(SeqNum seq) const
    {
        const auto it = live_.find(seq);
        const auto &inst =
            it != live_.end() ? it->second : issued_.at(seq);
        return inst->seg.headedChain;
    }
    Cycle cycle() const { return cycle_; }

  private:
    /**
     * One transcript line: the step, then occupancy, chains in use,
     * per-segment occupancy, the issue order, and for each resident
     * its segment, effective delay and memberships (chain/generation,
     * delay, T = self-timed, S = suspended).
     */
    void
    record(const char *step, SeqNum seq,
           const std::vector<SeqNum> &issued = {})
    {
        std::ostringstream os;
        os << step << " seq=" << seq << " cycle=" << cycle_
           << " occ=" << iq_->occupancy() << " chains=" << iq_->chainsInUse()
           << " segs=";
        for (unsigned k = 0; k < iq_->numSegments(); ++k)
            os << (k ? "," : "") << iq_->segmentOccupancy(k);
        os << " issued=";
        for (std::size_t i = 0; i < issued.size(); ++i)
            os << (i ? "," : "") << issued[i];
        for (const auto &[s, inst] : live_) {
            os << " | " << s << " seg=" << iq_->debugSegment(inst)
               << " eff=" << iq_->debugEffectiveDelay(inst);
            for (int m = 0; m < iq_->debugMembershipCount(inst); ++m) {
                const ChainMembership mem = iq_->debugMembership(inst, m);
                os << " [" << mem.chain << "/" << mem.gen << " d="
                   << mem.delay << (mem.selfTimed ? " T" : "")
                   << (mem.suspended ? " S" : "") << "]";
            }
        }
        transcript_ += os.str() + "\n";
    }

    void
    checkTranscript() const
    {
        if (::testing::Test::HasFatalFailure())
            return;  // the script stopped early; the transcript is partial
        const std::filesystem::path path =
            std::filesystem::path(SCIQ_GOLDEN_DIR) / "iq_torture" /
            (std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()) +
             ".txt");
        std::ifstream in(path);
        if (!in) {
            std::filesystem::create_directories(path.parent_path());
            std::ofstream out(path);
            out << transcript_;
            ADD_FAILURE() << (out ? "recorded " : "cannot write ") << path
                          << "; run again to check against it";
            return;
        }
        std::istringstream got(transcript_);
        std::string want_line, got_line;
        for (unsigned line = 1;; ++line) {
            const bool more_want = !!std::getline(in, want_line);
            const bool more_got = !!std::getline(got, got_line);
            if (!more_want && !more_got)
                return;
            if (more_want != more_got || want_line != got_line) {
                ADD_FAILURE() << path << " line " << line
                              << " differs\n  recorded: "
                              << (more_want ? want_line : "<end>")
                              << "\n  this run: "
                              << (more_got ? got_line : "<end>");
                return;
            }
        }
    }

    Scoreboard scoreboard_{128};
    FuPool fu_;
    HitMissPredictor hmp_{64};
    LeftRightPredictor lrp_{64};
    std::unique_ptr<SegmentedIq> iq_;
    Cycle cycle_ = 0;
    std::map<SeqNum, DynInstPtr> live_;
    std::map<SeqNum, DynInstPtr> issued_;
    std::string transcript_;
};

IqParams
tinyParams(unsigned entries, unsigned seg_size)
{
    IqParams p;
    p.numEntries = entries;
    p.segmentSize = seg_size;
    p.issueWidth = 4;
    p.maxChains = -1;
    p.enableBypass = false;  // keep everything flowing through segments
    p.enablePushdown = true;
    p.predictedLoadLatency = 4;
    return p;
}

TEST(IqSoaTorture, DeliveryAcrossManyTinySegments)
{
    // 6 two-entry segments: every chain-wire signal crosses several
    // segment boundaries and every promotion straddles a lane-word
    // boundary.  A never-ready load heads the chain; dependents fill
    // the upper segments.
    TortureRig rig(tinyParams(12, 2));
    rig.clearReady(intReg(1));  // the head's address is outstanding
    ASSERT_TRUE(rig.dispatch(1, Opcode::LD, intReg(2), intReg(1)));
    for (SeqNum s = 2; s <= 9; ++s) {
        rig.dispatch(s, Opcode::ADD, intReg(10 + s), intReg(2), intReg(3));
        rig.tick();
    }
    for (int i = 0; i < 10; ++i) {
        rig.issue(2);
        rig.tick();
    }
    // Release the head: the Assert signal walks up through all six
    // segments while dependents promote down past each boundary.
    rig.setReady(intReg(1));
    rig.setReady(intReg(3));
    rig.drain();
}

TEST(IqSoaTorture, SuspendResumeStraddlingBoundaries)
{
    TortureRig rig(tinyParams(12, 2));
    ASSERT_TRUE(rig.dispatch(1, Opcode::LD, intReg(2), intReg(1)));
    rig.setReady(intReg(1));
    for (SeqNum s = 2; s <= 7; ++s)
        rig.dispatch(s, Opcode::ADD, intReg(10 + s), intReg(2), intReg(3));
    rig.setReady(intReg(3));

    // Issue the load (once it promotes into segment 0), then miss: the
    // Suspend signal chases the earlier Assert up the segment stack
    // while dependents are mid-promotion.
    rig.issueUntil(1, /*complete=*/false);
    rig.tick();
    rig.loadMiss(1);
    for (int i = 0; i < 6; ++i) {
        rig.issue(2);
        rig.tick();
    }
    // Data returns: Resume propagates and the queue drains.
    rig.loadComplete(1);
    rig.tick();
    rig.drain();
}

TEST(IqSoaTorture, SquashMidDelivery)
{
    TortureRig rig(tinyParams(12, 2));
    ASSERT_TRUE(rig.dispatch(1, Opcode::LD, intReg(2), intReg(1)));
    ASSERT_TRUE(rig.dispatch(2, Opcode::LD, intReg(3), intReg(1)));
    for (SeqNum s = 3; s <= 8; ++s)
        rig.dispatch(s, Opcode::ADD, intReg(10 + s), intReg(2), intReg(3));
    rig.tick();
    rig.tick();

    // Squash the younger half while chain signals are still in flight,
    // then re-fill the freed slots with a fresh dependence pattern.
    rig.squash(4);
    for (SeqNum s = 9; s <= 12; ++s)
        rig.dispatch(s, Opcode::ADD, intReg(20 + (s - 9)), intReg(3),
                     intReg(4));
    rig.tick();
    rig.setReady(intReg(1));
    rig.setReady(intReg(3));
    rig.setReady(intReg(4));
    rig.drain();
}

TEST(IqSoaTorture, MemberPromotedMidFlightSeesSignalEarlier)
{
    // 8 two-entry segments, dispatch always into the top one.  The head
    // is a load whose address never arrives: it promotes one segment a
    // cycle down to the issue buffer and then stops, so its last
    // Asserts are still climbing the wire when it goes quiet.  Its
    // dependents dispatch while it sits 5 segments below them and keep
    // promoting afterwards; each move brings the next in-flight signal
    // a cycle closer, so the delivery pass must not keep skipping the
    // chain until the wake cycle computed at the dependent's old
    // segment.
    TortureRig rig(tinyParams(16, 2));
    rig.clearReady(intReg(1));
    ASSERT_TRUE(rig.dispatch(1, Opcode::LD, intReg(2), intReg(1)));
    for (int i = 0; i < 5; ++i)
        rig.tick();
    ASSERT_EQ(rig.segmentOf(1), 2);
    ASSERT_TRUE(rig.dispatch(2, Opcode::ADD, intReg(10), intReg(2),
                             intReg(3)));
    rig.tick();
    ASSERT_TRUE(rig.dispatch(3, Opcode::ADD, intReg(11), intReg(2),
                             intReg(3)));
    for (int i = 0; i < 12; ++i) {
        rig.issue(4);
        rig.tick();
    }
    EXPECT_EQ(rig.segmentOf(1), 0);
    rig.setReady(intReg(1));
    rig.setReady(intReg(3));
    rig.drain();
}

TEST(IqSoaTorture, ReusedWireSignalsPastStaleWake)
{
    // 8 two-entry segments.  Two divides hold two load heads in the top
    // segment for a while.  The first head then promotes one segment a
    // cycle, so each Assert reaches the top two cycles after the one
    // before; a squash takes that head while its table entry still
    // waits for the last one.  The squash frees the wire at once, and
    // the second head gets it back, with an empty log, before the old
    // Assert would have arrived.  That head stays put past the old
    // arrival cycle; when it promotes, its member must see its Assert.
    TortureRig rig(tinyParams(16, 2));
    for (int i = 0; i < 20; ++i)
        rig.tick();  // past the drain delay a squash gives a wire
    ASSERT_TRUE(rig.dispatch(1, Opcode::DIV, intReg(20), intReg(4),
                             intReg(5)));
    for (int i = 0; i < 7; ++i)
        rig.tick();
    ASSERT_TRUE(rig.dispatch(2, Opcode::DIV, intReg(30), intReg(4),
                             intReg(5)));
    ASSERT_TRUE(rig.dispatch(3, Opcode::LD, intReg(2), intReg(20)));
    // The first head promotes at cycles 28, 30 and 32; its last Assert
    // (from segment 5) reaches its table entry at the top at cycle 34.
    for (int i = 0; i < 5; ++i)
        rig.tick();
    ASSERT_EQ(rig.segmentOf(3), 4);
    const std::size_t wires = rig.chainsInUse();
    rig.squash(2);
    rig.tick();  // the squashed head's wire is free again
    ASSERT_TRUE(rig.dispatch(4, Opcode::LD, intReg(21), intReg(30)));
    ASSERT_TRUE(rig.dispatch(5, Opcode::ADD, intReg(22), intReg(21),
                             intReg(3)));
    EXPECT_EQ(rig.chainsInUse(), wires);
    rig.tick();
    ASSERT_EQ(rig.cycle(), 34u);
    ASSERT_EQ(rig.segmentOf(4), 7);
    rig.tick();  // the new head's first Assert
    ASSERT_EQ(rig.segmentOf(4), 6);
    rig.drain();
}

TEST(IqSoaTorture, ListenerPromotedTwiceUnderOneAssert)
{
    // 8 two-entry segments.  A load head promotes one segment a cycle
    // to the issue buffer.  Its dependent, dispatched at the top while
    // the head sits in segment 2, is eligible at once and promotes a
    // segment a cycle too, so the head's Assert from segment 2 (cycle
    // 6, due at the top at cycle 11) reaches it after two more moves,
    // at cycle 8 in segment 4.  Each move must bring its due cycle
    // forward; delivering at the due cycle computed at dispatch would
    // leave its delay 2 too high for a cycle and stall it in segment 4.
    TortureRig rig(tinyParams(16, 2));
    rig.clearReady(intReg(1));
    ASSERT_TRUE(rig.dispatch(1, Opcode::LD, intReg(2), intReg(1)));
    for (int i = 0; i < 5; ++i)
        rig.tick();
    ASSERT_EQ(rig.segmentOf(1), 2);
    ASSERT_TRUE(rig.dispatch(2, Opcode::ADD, intReg(10), intReg(2),
                             intReg(3)));
    EXPECT_EQ(rig.delayOf(2), 8);  // head 2 segments down, load latency 4
    rig.tick();  // cycle 6: the head leaves segment 2, the member 7
    ASSERT_EQ(rig.segmentOf(2), 6);
    rig.tick();  // cycle 7
    ASSERT_EQ(rig.segmentOf(2), 5);
    EXPECT_EQ(rig.delayOf(2), 8);  // the Assert is still climbing
    rig.tick();  // cycle 8: moved into segment 4, where it arrives now
    ASSERT_EQ(rig.segmentOf(2), 4);
    EXPECT_EQ(rig.delayOf(2), 6);
    rig.tick();  // cycle 9: eligible again, and the next Assert lands
    EXPECT_EQ(rig.segmentOf(2), 3);
    EXPECT_EQ(rig.delayOf(2), 4);
    rig.setReady(intReg(1));
    rig.setReady(intReg(3));
    rig.drain();
}

TEST(IqSoaTorture, RestoredTableEntryLagsWireReusedSameCycle)
{
    // 8 two-entry segments.  A load head's dependent writes r5; a
    // younger instruction overwrites that table entry before any of
    // the head's Asserts reach the top, so the entry saved for undo
    // lags the wire.  The head issues and completes; its wire drains
    // and is freed at the start of cycle 18.  In that same cycle a
    // squash restores the lagging entry and a new load head is given
    // the freed wire: the restored entry is now stale and must take
    // none of the new generation's signals.
    TortureRig rig(tinyParams(16, 2));
    ASSERT_TRUE(rig.dispatch(1, Opcode::LD, intReg(2), intReg(1)));
    ASSERT_TRUE(rig.dispatch(2, Opcode::ADD, intReg(5), intReg(2),
                             intReg(3)));
    rig.tick();
    ASSERT_TRUE(rig.dispatch(3, Opcode::ADD, intReg(5), intReg(6),
                             intReg(7)));
    rig.issueUntil(1, /*complete=*/false);
    const Cycle issued_at = rig.cycle();
    rig.tick();
    rig.loadComplete(1);  // writeback: the wire drains for n + 2 cycles
    const Cycle freed_at = rig.cycle() + 8 + 2;
    while (rig.cycle() < freed_at) {
        rig.issue(1);
        rig.tick();
    }
    EXPECT_GT(freed_at, issued_at);
    const std::size_t wires = rig.chainsInUse();
    rig.squash(2);  // restores r5's entry on the drained wire
    ASSERT_TRUE(rig.dispatch(4, Opcode::LD, intReg(21), intReg(30)));
    EXPECT_EQ(rig.headedChain(4), rig.headedChain(1));
    EXPECT_EQ(rig.chainsInUse(), wires + 1);
    // A reader of the restored entry and the new head's wire.
    ASSERT_TRUE(rig.dispatch(5, Opcode::ADD, intReg(22), intReg(5),
                             intReg(21)));
    for (int i = 0; i < 10; ++i) {
        rig.issue(1);
        rig.tick();
    }
    rig.drain();
}

TEST(IqSoaTorture, DeadlockRecoveryParity)
{
    // Wedge a 4-entry queue behind a never-ready load; with the core
    // idle the watchdog fires and the recorded recovery must replay
    // (heads hoisted, memberships rebuilt).  Bypass on so all
    // four instructions fit past the 2-entry dispatch segment.
    IqParams params = tinyParams(4, 2);
    params.enableBypass = true;
    TortureRig rig(params);
    rig.clearReady(intReg(1));
    ASSERT_TRUE(rig.dispatch(1, Opcode::LD, intReg(2), intReg(1)));
    for (SeqNum s = 2; s <= 4; ++s)
        rig.dispatch(s, Opcode::ADD, intReg(10 + s), intReg(2), intReg(3));
    ASSERT_EQ(rig.occupancy(), 4u);
    for (int i = 0; i < 6; ++i) {
        rig.issue(4);
        rig.tick(/*busy=*/false);
    }
    EXPECT_EQ(rig.occupancy(), 4u);
    rig.setReady(intReg(1));
    rig.setReady(intReg(2));
    rig.setReady(intReg(3));
    rig.drain();
}

} // namespace
