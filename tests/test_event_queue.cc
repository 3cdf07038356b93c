/** @file Unit tests for the cycle-ordered event queue. */

#include <gtest/gtest.h>

#include <vector>

#include "common/event_queue.hh"
#include "common/logging.hh"

using namespace sciq;

TEST(EventQueue, FiresInCycleOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(5); });
    q.schedule(2, [&] { order.push_back(2); });
    q.schedule(9, [&] { order.push_back(9); });
    q.runUntil(10);
    EXPECT_EQ(order, (std::vector<int>{2, 5, 9}));
}

TEST(EventQueue, SameCycleFifoOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(3, [&order, i] { order.push_back(i); });
    q.runUntil(3);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue q;
    int fired = 0;
    q.schedule(5, [&] { ++fired; });
    q.schedule(6, [&] { ++fired; });
    q.runUntil(5);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.curCycle(), 5u);
    q.runUntil(6);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue q;
    std::vector<Cycle> fired;
    q.schedule(1, [&] {
        fired.push_back(q.curCycle());
        q.schedule(3, [&] { fired.push_back(q.curCycle()); });
    });
    q.runUntil(10);
    EXPECT_EQ(fired, (std::vector<Cycle>{1, 3}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue q;
    q.schedule(5, [] {});
    q.runUntil(7);
    EXPECT_THROW(q.schedule(6, [] {}), PanicError);
}

TEST(EventQueue, NextEventCycle)
{
    EventQueue q;
    EXPECT_EQ(q.nextEventCycle(), kCycleNever);
    q.schedule(11, [] {});
    q.schedule(4, [] {});
    EXPECT_EQ(q.nextEventCycle(), 4u);
}

TEST(EventQueue, SameCycleCallbackRunsThisRound)
{
    EventQueue q;
    int fired = 0;
    q.schedule(2, [&] {
        q.schedule(2, [&] { ++fired; });
    });
    q.runUntil(2);
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, ScheduleReturnsIncreasingTickets)
{
    EventQueue q;
    const EventQueue::Ticket a = q.schedule(7, [] {});
    const EventQueue::Ticket b = q.schedule(3, [] {});
    EXPECT_LT(a, b);
}

TEST(EventQueue, LastScheduledForItsCycle)
{
    EventQueue q;
    const EventQueue::Ticket t = q.schedule(5, [] {});
    EXPECT_TRUE(q.isLastScheduledFor(5, t));
    EXPECT_FALSE(q.isLastScheduledFor(6, t));

    // Events for other cycles leave the answer unchanged.
    q.schedule(6, [] {});
    q.schedule(100, [] {});
    EXPECT_TRUE(q.isLastScheduledFor(5, t));

    // Another event for the same cycle in between: no longer last.
    const EventQueue::Ticket u = q.schedule(5, [] {});
    EXPECT_FALSE(q.isLastScheduledFor(5, t));
    EXPECT_TRUE(q.isLastScheduledFor(5, u));
}

TEST(EventQueue, AliasingCycleGivesConservativeNo)
{
    // Cycles 5 and 5 + 64 share a bookkeeping slot; once the far one
    // has been scheduled the near one's ticket cannot be vouched for.
    EventQueue q;
    const EventQueue::Ticket t = q.schedule(5, [] {});
    const EventQueue::Ticket far = q.schedule(5 + 64, [] {});
    EXPECT_FALSE(q.isLastScheduledFor(5, t));
    EXPECT_TRUE(q.isLastScheduledFor(5 + 64, far));

    // A far-future cycle in the same slot, then the near cycle again:
    // only the newest near ticket is last, never the overwritten one.
    const EventQueue::Ticket v = q.schedule(5, [] {});
    q.schedule(5 + 64 * 1000, [] {});
    EXPECT_FALSE(q.isLastScheduledFor(5, v));
    EXPECT_FALSE(q.isLastScheduledFor(5 + 64, far));
    const EventQueue::Ticket w = q.schedule(5, [] {});
    EXPECT_TRUE(q.isLastScheduledFor(5, w));
    EXPECT_FALSE(q.isLastScheduledFor(5, t));
    EXPECT_FALSE(q.isLastScheduledFor(5, v));
}

TEST(EventQueue, LastScheduledMatchesFiringOrder)
{
    // Whenever the query says yes, an event scheduled next for that
    // cycle fires immediately after the queried one.
    EventQueue q;
    std::vector<int> order;
    const EventQueue::Ticket t = q.schedule(4, [&] { order.push_back(0); });
    q.schedule(9, [&] { order.push_back(9); });
    ASSERT_TRUE(q.isLastScheduledFor(4, t));
    q.schedule(4, [&] { order.push_back(1); });
    q.runUntil(3);
    q.schedule(4, [&] { order.push_back(2); });
    q.runUntil(10);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 9}));
}
