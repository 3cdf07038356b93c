/** @file Unit tests for the cycle-ordered event queue. */

#include <gtest/gtest.h>

#include <vector>

#include "common/event_queue.hh"
#include "common/logging.hh"
#include "event_harness.hh"

using namespace sciq;
using namespace sciq::test;

TEST(EventQueue, FiresInCycleOrder)
{
    EventQueue q;
    Recorder rec;
    q.schedule(5, &rec, 0, 5);
    q.schedule(2, &rec, 0, 2);
    q.schedule(9, &rec, 0, 9);
    q.runUntil(10);
    EXPECT_EQ(rec.args(), (std::vector<std::uint64_t>{2, 5, 9}));
}

TEST(EventQueue, SameCycleFifoOrder)
{
    EventQueue q;
    Recorder rec;
    for (int i = 0; i < 5; ++i)
        q.schedule(3, &rec, 0, i);
    q.runUntil(3);
    EXPECT_EQ(rec.args(), (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue q;
    Recorder rec;
    q.schedule(5, &rec, 0);
    q.schedule(6, &rec, 0);
    q.runUntil(5);
    EXPECT_EQ(rec.fired.size(), 1u);
    EXPECT_EQ(q.curCycle(), 5u);
    q.runUntil(6);
    EXPECT_EQ(rec.fired.size(), 2u);
}

TEST(EventQueue, HandlerReceivesKindArgAndCycle)
{
    EventQueue q;
    Recorder rec;
    q.schedule(7, &rec, 3, 0xABCDEF0123456789ULL);
    q.runUntil(7);
    ASSERT_EQ(rec.fired.size(), 1u);
    EXPECT_EQ(rec.fired[0].when, 7u);
    EXPECT_EQ(rec.fired[0].kind, 3u);
    EXPECT_EQ(rec.fired[0].arg, 0xABCDEF0123456789ULL);
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue q;
    Actions acts;
    std::vector<Cycle> fired;
    acts.at(q, 1, [&] {
        fired.push_back(q.curCycle());
        acts.at(q, 3, [&] { fired.push_back(q.curCycle()); });
    });
    q.runUntil(10);
    EXPECT_EQ(fired, (std::vector<Cycle>{1, 3}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue q;
    q.schedule(5, nullptr, 0);
    q.runUntil(7);
    EXPECT_THROW(q.schedule(6, nullptr, 0), PanicError);
}

TEST(EventQueue, NextEventCycle)
{
    EventQueue q;
    EXPECT_EQ(q.nextEventCycle(), kCycleNever);
    q.schedule(11, nullptr, 0);
    q.schedule(4, nullptr, 0);
    EXPECT_EQ(q.nextEventCycle(), 4u);
}

TEST(EventQueue, SameCycleCallbackRunsThisRound)
{
    EventQueue q;
    Actions acts;
    Recorder rec;
    acts.at(q, 2, [&] { q.schedule(2, &rec, 0); });
    q.runUntil(2);
    EXPECT_EQ(rec.fired.size(), 1u);
}

TEST(EventQueue, ScheduleReturnsIncreasingTickets)
{
    EventQueue q;
    const EventQueue::Ticket a = q.schedule(7, nullptr, 0);
    const EventQueue::Ticket b = q.schedule(3, nullptr, 0);
    EXPECT_LT(a, b);
}

TEST(EventQueue, LastScheduledForItsCycle)
{
    EventQueue q;
    const EventQueue::Ticket t = q.schedule(5, nullptr, 0);
    EXPECT_TRUE(q.isLastScheduledFor(5, t));
    EXPECT_FALSE(q.isLastScheduledFor(6, t));

    // Events for other cycles leave the answer unchanged.
    q.schedule(6, nullptr, 0);
    q.schedule(100, nullptr, 0);
    EXPECT_TRUE(q.isLastScheduledFor(5, t));

    // Another event for the same cycle in between: no longer last.
    const EventQueue::Ticket u = q.schedule(5, nullptr, 0);
    EXPECT_FALSE(q.isLastScheduledFor(5, t));
    EXPECT_TRUE(q.isLastScheduledFor(5, u));
}

TEST(EventQueue, AliasingCycleGivesConservativeNo)
{
    // Cycles 5 and 5 + 64 share a bookkeeping slot; once the far one
    // has been scheduled the near one's ticket cannot be vouched for.
    EventQueue q;
    const EventQueue::Ticket t = q.schedule(5, nullptr, 0);
    const EventQueue::Ticket far = q.schedule(5 + 64, nullptr, 0);
    EXPECT_FALSE(q.isLastScheduledFor(5, t));
    EXPECT_TRUE(q.isLastScheduledFor(5 + 64, far));

    // A far-future cycle in the same slot, then the near cycle again:
    // only the newest near ticket is last, never the overwritten one.
    const EventQueue::Ticket v = q.schedule(5, nullptr, 0);
    q.schedule(5 + 64 * 1000, nullptr, 0);
    EXPECT_FALSE(q.isLastScheduledFor(5, v));
    EXPECT_FALSE(q.isLastScheduledFor(5 + 64, far));
    const EventQueue::Ticket w = q.schedule(5, nullptr, 0);
    EXPECT_TRUE(q.isLastScheduledFor(5, w));
    EXPECT_FALSE(q.isLastScheduledFor(5, t));
    EXPECT_FALSE(q.isLastScheduledFor(5, v));
}

TEST(EventQueue, LastScheduledMatchesFiringOrder)
{
    // Whenever the query says yes, an event scheduled next for that
    // cycle fires immediately after the queried one.
    EventQueue q;
    Recorder rec;
    const EventQueue::Ticket t = q.schedule(4, &rec, 0, 0);
    q.schedule(9, &rec, 0, 9);
    ASSERT_TRUE(q.isLastScheduledFor(4, t));
    q.schedule(4, &rec, 0, 1);
    q.runUntil(3);
    q.schedule(4, &rec, 0, 2);
    q.runUntil(10);
    EXPECT_EQ(rec.args(), (std::vector<std::uint64_t>{0, 1, 2, 9}));
}

TEST(EventQueue, NullTargetTakesItsTicketAndFiresAsNoOp)
{
    // A discarded reply is still an event: it ends the previous event's
    // claim to be the newest for its cycle and fires in its place.
    EventQueue q;
    Recorder rec;
    const EventQueue::Ticket t = q.schedule(4, &rec, 0, 0);
    const EventQueue::Ticket n = q.schedule(4, nullptr, 0);
    EXPECT_LT(t, n);
    EXPECT_FALSE(q.isLastScheduledFor(4, t));
    EXPECT_TRUE(q.isLastScheduledFor(4, n));
    q.schedule(4, &rec, 0, 1);
    EXPECT_EQ(q.size(), 3u);
    q.runUntil(4);
    EXPECT_EQ(rec.args(), (std::vector<std::uint64_t>{0, 1}));
    EXPECT_TRUE(q.empty());
}
