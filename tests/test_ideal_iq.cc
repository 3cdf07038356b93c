/** @file Tests for the idealised monolithic instruction queue. */

#include <gtest/gtest.h>

#include <map>

#include "iq/ideal_iq.hh"
#include "iq_harness.hh"

using namespace sciq;
using namespace sciq::test;

namespace {

struct IdealFixture : public ::testing::Test
{
    IdealFixture() : scoreboard(128), fu(), rec(scoreboard)
    {
        params.numEntries = 8;
        params.issueWidth = 4;
    }

    IqParams params;
    Scoreboard scoreboard;
    FuPool fu;
    IssueRecorder rec;
};

} // namespace

TEST_F(IdealFixture, CapacityGatesInsertion)
{
    IdealIq iq(params, scoreboard, fu);
    for (SeqNum s = 1; s <= 8; ++s) {
        auto inst = makeInst(s, Opcode::NOP);
        ASSERT_TRUE(iq.tryInsert(inst, 0));
    }
    auto extra = makeInst(9, Opcode::NOP);
    EXPECT_FALSE(iq.tryInsert(extra, 0));
    EXPECT_FALSE(extra->ideal.inQueue);
    EXPECT_EQ(iq.occupancy(), 8u);
    EXPECT_EQ(iq.instsInserted.value(), 8.0);
}

TEST_F(IdealFixture, OnlyReadyInstructionsIssue)
{
    IdealIq iq(params, scoreboard, fu);
    auto ready = makeInst(1, Opcode::ADD, intReg(3), intReg(1), intReg(2));
    auto unready = makeInst(2, Opcode::ADD, intReg(5), intReg(4), intReg(2));
    scoreboard.setReady(intReg(1));
    scoreboard.setReady(intReg(2));
    scoreboard.clearReady(intReg(4));
    ASSERT_TRUE(iq.tryInsert(ready, 0));
    ASSERT_TRUE(iq.tryInsert(unready, 0));

    iq.issueSelect(1, rec.acceptAll());
    ASSERT_EQ(rec.issued.size(), 1u);
    EXPECT_EQ(rec.issued[0]->seq, 1u);
    EXPECT_EQ(iq.occupancy(), 1u);

    // The owner must report newly-ready registers to the queue, as the
    // core does after every Scoreboard::setReady (DESIGN.md section 11).
    scoreboard.setReady(intReg(4));
    iq.onRegReady(intReg(4));
    iq.issueSelect(2, rec.acceptAll());
    EXPECT_EQ(rec.issued.size(), 2u);
    EXPECT_EQ(iq.occupancy(), 0u);
}

TEST_F(IdealFixture, OldestFirstWithinWidth)
{
    IdealIq iq(params, scoreboard, fu);
    for (SeqNum s = 1; s <= 6; ++s)
        ASSERT_TRUE(iq.tryInsert(makeInst(s, Opcode::NOP), 0));
    iq.issueSelect(1, rec.acceptAll());
    ASSERT_EQ(rec.issued.size(), 4u);  // issueWidth
    for (SeqNum s = 1; s <= 4; ++s)
        EXPECT_EQ(rec.issued[s - 1]->seq, s);
}

TEST_F(IdealFixture, RejectedInstructionsStayQueued)
{
    IdealIq iq(params, scoreboard, fu);
    ASSERT_TRUE(iq.tryInsert(makeInst(1, Opcode::NOP), 0));
    iq.issueSelect(1, rec.rejectAll());
    EXPECT_EQ(iq.occupancy(), 1u);
    iq.issueSelect(2, rec.acceptAll());
    EXPECT_EQ(iq.occupancy(), 0u);
}

TEST_F(IdealFixture, FuRejectDoesNotBlockOthers)
{
    IdealIq iq(params, scoreboard, fu);
    auto a = makeInst(1, Opcode::NOP);
    auto b = makeInst(2, Opcode::NOP);
    ASSERT_TRUE(iq.tryInsert(a, 0));
    ASSERT_TRUE(iq.tryInsert(b, 0));
    // Reject only the first instruction.
    iq.issueSelect(1, [&](const DynInstPtr &inst) {
        return inst->seq != 1;
    });
    EXPECT_EQ(iq.occupancy(), 1u);
    EXPECT_FALSE(a->issued);
}

TEST_F(IdealFixture, SquashRemovesYounger)
{
    IdealIq iq(params, scoreboard, fu);
    for (SeqNum s = 1; s <= 6; ++s)
        ASSERT_TRUE(iq.tryInsert(makeInst(s, Opcode::NOP), 0));
    iq.squash(3);
    EXPECT_EQ(iq.occupancy(), 3u);
    iq.issueSelect(1, rec.acceptAll());
    for (const auto &inst : rec.issued)
        EXPECT_LE(inst->seq, 3u);
}

TEST_F(IdealFixture, StoreDataDoesNotGateIssue)
{
    // A store's address generation waits only on the base register.
    IdealIq iq(params, scoreboard, fu);
    auto st = makeInst(1, Opcode::ST, kInvalidReg, intReg(1), intReg(9));
    scoreboard.setReady(intReg(1));
    scoreboard.clearReady(intReg(9));  // data not ready
    ASSERT_TRUE(iq.tryInsert(st, 0));
    iq.issueSelect(1, rec.acceptAll());
    ASSERT_EQ(rec.issued.size(), 1u);
}

TEST_F(IdealFixture, StatsTrackInsertsAndIssues)
{
    IdealIq iq(params, scoreboard, fu);
    ASSERT_TRUE(iq.tryInsert(makeInst(1, Opcode::NOP), 0));
    ASSERT_TRUE(iq.tryInsert(makeInst(2, Opcode::NOP), 0));
    iq.issueSelect(1, rec.acceptAll());
    EXPECT_EQ(iq.instsInserted.value(), 2.0);
    EXPECT_EQ(iq.instsIssued.value(), 2.0);
}

TEST_F(IdealFixture, TombstonesKeepOccupancyAndResidencyExact)
{
    // Issue leaves a tombstone in the residency list.  Occupancy and
    // the inQueue flags must stay exact through a non-oldest issue, a
    // squash across tombstones and compaction, which a 4-entry queue
    // runs once its list reaches 8 slots.
    params.numEntries = 4;
    IdealIq iq(params, scoreboard, fu);
    scoreboard.setReady(intReg(1));
    scoreboard.clearReady(intReg(4));
    std::map<SeqNum, DynInstPtr> insts;
    auto add = [&](SeqNum s, RegIndex src) {
        insts[s] = makeInst(s, Opcode::ADD, intReg(20), src);
        ASSERT_TRUE(iq.tryInsert(insts[s], 0));
    };
    auto issueOnly = [&](std::initializer_list<SeqNum> seqs) {
        iq.issueSelect(1, [&](const DynInstPtr &inst) {
            for (SeqNum s : seqs) {
                if (inst->seq == s)
                    return true;
            }
            return false;
        });
    };
    auto expectResident = [&](std::initializer_list<SeqNum> seqs) {
        std::size_t n = 0;
        for (const auto &[s, inst] : insts) {
            bool want = false;
            for (SeqNum r : seqs)
                want |= r == s;
            EXPECT_EQ(inst->ideal.inQueue, want) << "seq " << s;
            n += want;
        }
        EXPECT_EQ(iq.occupancy(), n);
        // A full queue refuses; below capacity the next add() admits.
        if (n == 4) {
            EXPECT_FALSE(iq.tryInsert(makeInst(99, Opcode::NOP), 0));
        }
    };

    // The oldest waits on r4; the three younger issue around it.
    add(1, intReg(4));
    for (SeqNum s = 2; s <= 4; ++s)
        add(s, intReg(1));
    expectResident({1, 2, 3, 4});
    issueOnly({2, 3, 4});
    expectResident({1});

    // A non-oldest ready entry issues between two that stay.
    for (SeqNum s = 5; s <= 7; ++s)
        add(s, intReg(4));
    scoreboard.setReady(intReg(4));
    iq.onRegReady(intReg(4));
    issueOnly({6});
    expectResident({1, 5, 7});
    add(8, intReg(1));
    expectResident({1, 5, 7, 8});

    // The squash pops the younger residents and the tombstones among
    // them, down to the oldest kept resident.
    iq.squash(5);
    expectResident({1, 5});

    // Fill and drain until the list holds 8 slots, so the next insert
    // compacts: the survivors keep their order, and issue finds them.
    add(9, intReg(1));
    add(10, intReg(1));
    issueOnly({9, 10});
    add(11, intReg(1));  // the eighth slot
    EXPECT_EQ(insts[11]->ideal.slot, 7u);
    add(12, intReg(1));
    EXPECT_EQ(insts[12]->ideal.slot, 3u);  // compacted: 1, 5, 11, 12
    expectResident({1, 5, 11, 12});
    issueOnly({5, 11, 12});
    add(13, intReg(1));
    add(14, intReg(1));
    add(15, intReg(1));
    expectResident({1, 13, 14, 15});
    rec.issued.clear();
    iq.issueSelect(2, rec.acceptAll());
    ASSERT_EQ(rec.issued.size(), 4u);
    EXPECT_EQ(rec.issued[0]->seq, 1u);
    EXPECT_EQ(rec.issued[3]->seq, 15u);
    expectResident({});
    // The drained queue, its list still holding tombstones, admits again.
    add(16, intReg(1));
    expectResident({16});
}
