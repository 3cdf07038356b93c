/** @file Tests for the Palacharla-style dependence-steered FIFO IQ. */

#include <gtest/gtest.h>

#include <vector>

#include "iq/fifo_iq.hh"
#include "iq_harness.hh"

using namespace sciq;
using namespace sciq::test;

namespace {

struct FifoFixture : public ::testing::Test
{
    FifoFixture() : scoreboard(128), rec(scoreboard)
    {
        params.numFifos = 4;
        params.fifoDepth = 4;
        params.numEntries = 16;
        params.issueWidth = 4;
    }

    std::unique_ptr<FifoIq>
    makeIq()
    {
        return std::make_unique<FifoIq>(params, scoreboard, fu);
    }

    void
    dispatch(FifoIq &iq, const DynInstPtr &inst)
    {
        ASSERT_TRUE(iq.tryInsert(inst, 0));
        if (inst->physDst != kInvalidReg)
            scoreboard.clearReady(inst->physDst);
    }

    IqParams params;
    Scoreboard scoreboard;
    FuPool fu;
    IssueRecorder rec;
};

} // namespace

TEST_F(FifoFixture, DependentSteeredBehindProducer)
{
    auto iq = makeIq();
    auto prod = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, prod);
    auto dep = makeInst(2, Opcode::ADD, intReg(3), intReg(2), intReg(1));
    dispatch(*iq, dep);
    EXPECT_EQ(iq->debugFifo(dep), iq->debugFifo(prod));
    EXPECT_EQ(iq->steeredBehindProducer.value(), 1.0);
}

TEST_F(FifoFixture, ReadyInstructionGetsEmptyFifo)
{
    auto iq = makeIq();
    auto a = makeInst(1, Opcode::NOP);
    auto b = makeInst(2, Opcode::NOP);
    dispatch(*iq, a);
    dispatch(*iq, b);
    EXPECT_NE(iq->debugFifo(a), iq->debugFifo(b));
    EXPECT_EQ(iq->steeredToEmpty.value(), 2.0);
}

TEST_F(FifoFixture, BuriedProducerForcesEmptyFifo)
{
    auto iq = makeIq();
    auto prod = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, prod);
    auto mid = makeInst(2, Opcode::ADD, intReg(3), intReg(2), intReg(1));
    dispatch(*iq, mid);  // now the producer is no longer a tail
    auto dep = makeInst(3, Opcode::ADD, intReg(4), intReg(2), intReg(1));
    dispatch(*iq, dep);
    EXPECT_NE(iq->debugFifo(dep), iq->debugFifo(prod));
}

TEST_F(FifoFixture, DispatchStallsWithoutEmptyFifo)
{
    auto iq = makeIq();
    // Four independent unready chains occupy all four FIFOs.
    scoreboard.clearReady(intReg(1));
    std::vector<DynInstPtr> lds;
    for (SeqNum s = 1; s <= 4; ++s) {
        lds.push_back(makeInst(s, Opcode::LD, intReg(10 + s), intReg(1)));
        dispatch(*iq, lds.back());
    }
    // A fifth independent instruction has nowhere to go.
    auto indep = makeInst(5, Opcode::NOP);
    EXPECT_FALSE(iq->tryInsert(indep, 0));
    EXPECT_GT(iq->noEmptyFifoStalls.value(), 0.0);
    EXPECT_EQ(iq->occupancy(), 4u);
    // But a dependent of one of the tails can still dispatch.
    auto dep = makeInst(6, Opcode::ADD, intReg(20), intReg(11), intReg(0));
    EXPECT_TRUE(iq->tryInsert(dep, 0));
    EXPECT_EQ(iq->debugFifo(dep), iq->debugFifo(lds[0]));
}

TEST_F(FifoFixture, OnlyFifoHeadsConsideredForIssue)
{
    auto iq = makeIq();
    scoreboard.clearReady(intReg(1));
    auto head = makeInst(1, Opcode::LD, intReg(2), intReg(1));  // unready
    dispatch(*iq, head);
    // A ready instruction behind it cannot issue.
    auto behind = makeInst(2, Opcode::ADD, intReg(3), intReg(2), intReg(0));
    dispatch(*iq, behind);
    scoreboard.setReady(intReg(2));  // pretend the value arrived early
    iq->issueSelect(1, rec.acceptAll());
    EXPECT_TRUE(rec.issued.empty());

    scoreboard.setReady(intReg(1));
    iq->issueSelect(2, rec.acceptAll());
    ASSERT_EQ(rec.issued.size(), 1u);
    EXPECT_EQ(rec.issued[0]->seq, 1u);
    iq->issueSelect(3, rec.acceptAll());
    EXPECT_EQ(rec.issued.size(), 2u);
}

TEST_F(FifoFixture, HeadsIssueOldestFirstAcrossFifos)
{
    auto iq = makeIq();
    std::vector<DynInstPtr> insts;
    for (SeqNum s = 1; s <= 4; ++s) {
        auto inst = makeInst(s, Opcode::NOP);
        dispatch(*iq, inst);
        insts.push_back(inst);
    }
    params.issueWidth = 4;
    iq->issueSelect(1, rec.acceptAll());
    ASSERT_EQ(rec.issued.size(), 4u);
    for (SeqNum s = 1; s <= 4; ++s)
        EXPECT_EQ(rec.issued[s - 1]->seq, s);
}

TEST_F(FifoFixture, FuRejectDoesNotBlockOtherHeads)
{
    auto iq = makeIq();
    auto a = makeInst(1, Opcode::NOP);
    auto b = makeInst(2, Opcode::NOP);
    dispatch(*iq, a);
    dispatch(*iq, b);
    iq->issueSelect(1, [&](const DynInstPtr &inst) {
        return inst->seq == 2;  // pretend seq 1's unit is busy
    });
    EXPECT_EQ(iq->occupancy(), 1u);
    EXPECT_TRUE(b->issued || !a->issued);
}

TEST_F(FifoFixture, SquashClearsYoungerAndProducerTable)
{
    auto iq = makeIq();
    auto prod = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, prod);
    auto dep = makeInst(2, Opcode::ADD, intReg(3), intReg(2), intReg(1));
    dispatch(*iq, dep);
    dep->squashed = true;
    iq->squash(1);
    EXPECT_EQ(iq->occupancy(), 1u);
    // A new dependent of the squashed dest must not chase a stale
    // producer entry; it goes to an empty FIFO.
    scoreboard.setReady(intReg(3));
    auto reader = makeInst(3, Opcode::ADD, intReg(4), intReg(3), intReg(1));
    dispatch(*iq, reader);
    EXPECT_NE(iq->debugFifo(reader), -1);
}

TEST_F(FifoFixture, FifoDepthLimitSteersElsewhere)
{
    params.fifoDepth = 2;
    auto iq = makeIq();
    scoreboard.clearReady(intReg(1));
    auto prod = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, prod);
    auto dep1 = makeInst(2, Opcode::ADD, intReg(3), intReg(2), intReg(0));
    dispatch(*iq, dep1);  // fills the FIFO to depth 2
    auto dep2 = makeInst(3, Opcode::ADD, intReg(4), intReg(3), intReg(0));
    dispatch(*iq, dep2);  // producer fifo full: must go elsewhere
    EXPECT_NE(iq->debugFifo(dep2), iq->debugFifo(prod));
}
