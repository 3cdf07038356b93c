/** @file Tests for the Michaud/Seznec-style prescheduling IQ. */

#include <gtest/gtest.h>

#include "common/errors.hh"
#include "iq/prescheduled_iq.hh"
#include "iq_harness.hh"

using namespace sciq;
using namespace sciq::test;

namespace {

struct PreschedFixture : public ::testing::Test
{
    PreschedFixture() : scoreboard(128), rec(scoreboard)
    {
        params.issueBufferSize = 4;
        params.preschedLineWidth = 2;
        params.numEntries = 4 + 8 * 2;  // buffer + 8 lines of 2
        params.issueWidth = 4;
        params.predictedLoadLatency = 4;
    }

    std::unique_ptr<PrescheduledIq>
    makeIq()
    {
        return std::make_unique<PrescheduledIq>(params, scoreboard, fu);
    }

    void
    dispatch(PrescheduledIq &iq, const DynInstPtr &inst)
    {
        ASSERT_TRUE(iq.tryInsert(inst, cycle));
        if (inst->physDst != kInvalidReg)
            scoreboard.clearReady(inst->physDst);
    }

    void tick(PrescheduledIq &iq) { iq.tick(++cycle, true); }

    IqParams params;
    Scoreboard scoreboard;
    FuPool fu;
    IssueRecorder rec;
    Cycle cycle = 0;
};

} // namespace

TEST_F(PreschedFixture, GeometryFromParams)
{
    auto iq = makeIq();
    EXPECT_EQ(iq->numLines(), 8u);
    IqParams bad = params;
    bad.numEntries = 4 + 15;  // not a multiple of the line width
    EXPECT_THROW(PrescheduledIq(bad, scoreboard, fu), ConfigError);
}

TEST_F(PreschedFixture, ReadyInstructionPlacedInLineZero)
{
    auto iq = makeIq();
    auto inst = makeInst(1, Opcode::ADD, intReg(3), intReg(1), intReg(2));
    dispatch(*iq, inst);
    EXPECT_EQ(iq->debugLine(inst), 0);
}

TEST_F(PreschedFixture, DependentPlacedByPredictedLatency)
{
    auto iq = makeIq();
    auto prod = makeInst(1, Opcode::MUL, intReg(2), intReg(1), intReg(1));
    dispatch(*iq, prod);
    EXPECT_EQ(iq->debugLine(prod), 0);
    auto dep = makeInst(2, Opcode::ADD, intReg(3), intReg(2), intReg(1));
    dispatch(*iq, dep);
    // Ready when mul (line 0) reaches the buffer (+1) and executes (3).
    EXPECT_EQ(iq->debugLine(dep), 4);
}

TEST_F(PreschedFixture, LoadsPredictedAsCacheHits)
{
    auto iq = makeIq();
    auto load = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load);
    auto dep = makeInst(2, Opcode::ADD, intReg(3), intReg(2), intReg(1));
    dispatch(*iq, dep);
    EXPECT_EQ(iq->debugLine(dep), 1 + 4);  // predictedLoadLatency
}

TEST_F(PreschedFixture, FullLineSpillsToNextLine)
{
    auto iq = makeIq();
    for (SeqNum s = 1; s <= 2; ++s)
        dispatch(*iq, makeInst(s, Opcode::NOP));
    auto third = makeInst(3, Opcode::NOP);
    dispatch(*iq, third);
    EXPECT_EQ(iq->debugLine(third), 1);  // line 0 held only two
}

TEST_F(PreschedFixture, ArrayShiftsIntoIssueBufferEachCycle)
{
    auto iq = makeIq();
    auto inst = makeInst(1, Opcode::ADD, intReg(3), intReg(1), intReg(2));
    dispatch(*iq, inst);
    tick(*iq);
    EXPECT_EQ(iq->debugLine(inst), -1);  // now in the issue buffer
    EXPECT_EQ(iq->issueBufferOccupancy(), 1u);
    iq->issueSelect(cycle, rec.acceptAll());
    ASSERT_EQ(rec.issued.size(), 1u);
}

TEST_F(PreschedFixture, IssueOnlyFromBufferAndOnlyWhenReady)
{
    auto iq = makeIq();
    scoreboard.clearReady(intReg(9));
    auto inst = makeInst(1, Opcode::ADD, intReg(3), intReg(9), intReg(1));
    dispatch(*iq, inst);
    // Still in the array: cannot issue no matter what.
    iq->issueSelect(cycle, rec.acceptAll());
    EXPECT_TRUE(rec.issued.empty());
    tick(*iq);
    // In the buffer but its operand is not ready.
    iq->issueSelect(cycle, rec.acceptAll());
    EXPECT_TRUE(rec.issued.empty());
    scoreboard.setReady(intReg(9));
    iq->issueSelect(cycle, rec.acceptAll());
    EXPECT_EQ(rec.issued.size(), 1u);
}

TEST_F(PreschedFixture, FullBufferStallsTheArray)
{
    auto iq = makeIq();
    // Four unready instructions fill the buffer.
    scoreboard.clearReady(intReg(9));
    for (SeqNum s = 1; s <= 4; ++s) {
        dispatch(*iq,
                 makeInst(s, Opcode::ADD, intReg(10 + s), intReg(9),
                          intReg(1)));
    }
    tick(*iq);
    tick(*iq);
    tick(*iq);
    EXPECT_EQ(iq->issueBufferOccupancy(), 4u);
    // A fifth instruction cannot enter the buffer: the array stalls.
    dispatch(*iq, makeInst(5, Opcode::NOP));
    const double stalls_before = iq->arrayStallCycles.value();
    tick(*iq);
    EXPECT_GT(iq->arrayStallCycles.value(), stalls_before);
    EXPECT_EQ(iq->issueBufferOccupancy(), 4u);

    // Draining the buffer lets the array move again.
    scoreboard.setReady(intReg(9));
    iq->issueSelect(cycle, rec.acceptAll());
    tick(*iq);
    EXPECT_GT(iq->issueBufferOccupancy(), 0u);
}

TEST_F(PreschedFixture, DependentsNeverEnterBufferBeforeProducers)
{
    // The anti-inversion property that prevents scheduler deadlock:
    // even with delays clamped by a short array, a dependent must not
    // reach the issue buffer while its producer is still in the array.
    auto iq = makeIq();
    std::vector<DynInstPtr> chain;
    RegIndex prev = intReg(1);
    for (SeqNum s = 1; s <= 10; ++s) {
        RegIndex dst = intReg(10 + s);
        auto inst = makeInst(s, Opcode::LD, dst, prev);
        if (!iq->tryInsert(inst, cycle))
            break;  // dispatch stall is fine; inversion is not
        scoreboard.clearReady(dst);
        chain.push_back(inst);
        prev = dst;
    }
    ASSERT_GE(chain.size(), 4u);
    for (int t = 0; t < 30; ++t) {
        tick(*iq);
        for (std::size_t i = 1; i < chain.size(); ++i) {
            // If a consumer left the array, its producer must have too.
            if (iq->debugLine(chain[i]) == -1) {
                EXPECT_EQ(iq->debugLine(chain[i - 1]), -1)
                    << "inversion at link " << i << " tick " << t;
            }
        }
        iq->issueSelect(cycle, rec.acceptAndComplete());
    }
}

TEST_F(PreschedFixture, SquashRemovesAndRestoresPredictions)
{
    auto iq = makeIq();
    auto prod = makeInst(1, Opcode::MUL, intReg(2), intReg(1), intReg(1));
    dispatch(*iq, prod);
    auto dep = makeInst(2, Opcode::ADD, intReg(3), intReg(2), intReg(1));
    dispatch(*iq, dep);
    EXPECT_EQ(iq->occupancy(), 2u);

    iq->onSquashInst(dep);
    iq->onSquashInst(prod);
    iq->squash(0);
    EXPECT_EQ(iq->occupancy(), 0u);

    // With the table restored, a reader of r2 is placed as ready.
    scoreboard.setReady(intReg(2));
    auto reader = makeInst(3, Opcode::ADD, intReg(4), intReg(2), intReg(1));
    dispatch(*iq, reader);
    EXPECT_EQ(iq->debugLine(reader), 0);
}

TEST_F(PreschedFixture, CapacityStallsWhenAllLinesFull)
{
    auto iq = makeIq();
    // Fill every line by blocking the buffer with unready insts.
    scoreboard.clearReady(intReg(9));
    SeqNum s = 1;
    while (true) {
        auto inst =
            makeInst(s, Opcode::ADD, intReg(0), intReg(9), intReg(1));
        if (!iq->tryInsert(inst, cycle))
            break;
        ++s;
        ASSERT_LT(s, 100u);
    }
    EXPECT_GT(iq->dispatchStallsFull.value(), 0.0);
    EXPECT_EQ(iq->occupancy(), 16u);  // 8 lines x 2
}

TEST_F(PreschedFixture, ExtraDispatchStage)
{
    auto iq = makeIq();
    EXPECT_EQ(iq->extraDispatchCycles(), 1u);
}
