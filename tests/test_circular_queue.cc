/** @file Unit tests for the circular queue. */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>

#include "common/circular_queue.hh"
#include "common/logging.hh"
#include "common/random.hh"

using namespace sciq;

TEST(CircularQueue, BasicFifo)
{
    CircularQueue<int> q(4);
    EXPECT_TRUE(q.empty());
    q.pushBack(1);
    q.pushBack(2);
    q.pushBack(3);
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.front(), 1);
    EXPECT_EQ(q.back(), 3);
    EXPECT_EQ(q.popFront(), 1);
    EXPECT_EQ(q.popFront(), 2);
    EXPECT_EQ(q.size(), 1u);
}

TEST(CircularQueue, PopBackForSquash)
{
    CircularQueue<int> q(4);
    q.pushBack(1);
    q.pushBack(2);
    q.pushBack(3);
    EXPECT_EQ(q.popBack(), 3);
    EXPECT_EQ(q.popBack(), 2);
    EXPECT_EQ(q.back(), 1);
}

TEST(CircularQueue, WrapsAround)
{
    CircularQueue<int> q(3);
    for (int round = 0; round < 10; ++round) {
        q.pushBack(round);
        q.pushBack(round + 100);
        EXPECT_EQ(q.popFront(), round);
        EXPECT_EQ(q.popFront(), round + 100);
    }
    EXPECT_TRUE(q.empty());
}

TEST(CircularQueue, GrowingKeepsOrderAcrossTheWrap)
{
    // A wrapped ring that fills up doubles in place of refusing the
    // push; reserve() never shrinks and keeps the contents in order.
    CircularQueue<int> q;
    for (int i = 0; i < 6; ++i)
        q.pushBackGrow(i);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(q.popFront(), i);
    for (int i = 6; i < 20; ++i)
        q.pushBackGrow(i);  // wraps at 8, doubles to 16
    EXPECT_EQ(q.capacity(), 16u);
    q.reserve(4);
    EXPECT_EQ(q.capacity(), 16u);
    q.reserve(40);
    EXPECT_EQ(q.capacity(), 40u);
    ASSERT_EQ(q.size(), 16u);
    for (int i = 4; i < 20; ++i)
        EXPECT_EQ(q.popFront(), i);
    EXPECT_TRUE(q.empty());
}

TEST(CircularQueue, FullAndFreeEntries)
{
    CircularQueue<int> q(2);
    EXPECT_EQ(q.freeEntries(), 2u);
    q.pushBack(1);
    q.pushBack(2);
    EXPECT_TRUE(q.full());
    EXPECT_EQ(q.freeEntries(), 0u);
    EXPECT_THROW(q.pushBack(3), PanicError);
}

TEST(CircularQueue, IndexedAccess)
{
    CircularQueue<int> q(5);
    q.pushBack(10);
    q.pushBack(11);
    q.pushBack(12);
    q.popFront();
    q.pushBack(13);
    EXPECT_EQ(q.at(0), 11);
    EXPECT_EQ(q.at(1), 12);
    EXPECT_EQ(q.at(2), 13);
    EXPECT_THROW(q.at(3), PanicError);
}

TEST(CircularQueue, PopEmptyPanics)
{
    CircularQueue<int> q(2);
    EXPECT_THROW(q.popFront(), PanicError);
    EXPECT_THROW(q.popBack(), PanicError);
}

TEST(CircularQueue, ClearResets)
{
    CircularQueue<int> q(3);
    q.pushBack(1);
    q.pushBack(2);
    q.clear();
    EXPECT_TRUE(q.empty());
    q.pushBack(7);
    EXPECT_EQ(q.front(), 7);
}

// Regression: clear() used to reset only head/count, leaving the
// abandoned slots holding live T objects.  For owning element types
// (DynInstPtr, shared_ptr) that pinned the pointees until the same
// position happened to be overwritten again.
TEST(CircularQueue, ClearDestroysHeldElements)
{
    CircularQueue<std::shared_ptr<int>> q(4);
    auto p = std::make_shared<int>(7);
    q.pushBack(p);
    q.pushBack(p);
    q.pushBack(p);
    EXPECT_EQ(p.use_count(), 4);
    q.clear();
    EXPECT_EQ(p.use_count(), 1) << "clear() left live copies in the buffer";
}

TEST(CircularQueue, PopFrontReleasesOwnership)
{
    // popFront/popBack move out of the slot; nothing may linger behind.
    CircularQueue<std::shared_ptr<int>> q(2);
    auto p = std::make_shared<int>(1);
    q.pushBack(p);
    q.pushBack(p);
    (void)q.popFront();
    (void)q.popBack();
    EXPECT_EQ(p.use_count(), 1);
}

TEST(CircularQueue, SetCapacityOnEmpty)
{
    CircularQueue<int> q(2);
    q.setCapacity(8);
    for (int i = 0; i < 8; ++i)
        q.pushBack(i);
    EXPECT_TRUE(q.full());
    q.clear();
    q.pushBack(1);
    EXPECT_THROW(q.setCapacity(4), PanicError);
}

// Randomized differential run against std::deque.  Capacities are not
// powers of two and each run wraps the buffer many times, so every
// index path (push, both pops, front/back, at, operator[], clear) is
// checked across the wrap point.  Elements are owning pointers whose
// deleter counts live objects: the queue must hold exactly size()
// of them at every step, i.e. pops and clear() release ownership.
TEST(CircularQueue, DifferentialAgainstDeque)
{
    for (const std::size_t cap : {1u, 3u, 5u, 7u}) {
        SCOPED_TRACE("capacity " + std::to_string(cap));
        int live = 0;
        auto make = [&live](int v) {
            ++live;
            return std::shared_ptr<const int>(new int(v),
                                              [&live](const int *p) {
                                                  --live;
                                                  delete p;
                                              });
        };
        CircularQueue<std::shared_ptr<const int>> q(cap);
        std::deque<int> ref;
        Random rng(1000 + cap);
        int next = 0;
        for (int step = 0; step < 20000; ++step) {
            switch (rng.below(8)) {
              case 0:
              case 1:
              case 2:
                if (ref.size() < cap) {
                    q.pushBack(make(next));
                    ref.push_back(next++);
                } else {
                    EXPECT_THROW(q.pushBack(make(-1)), PanicError);
                }
                break;
              case 3:
              case 4:
                if (!ref.empty()) {
                    ASSERT_EQ(*q.popFront(), ref.front());
                    ref.pop_front();
                }
                break;
              case 5:
                if (!ref.empty()) {
                    ASSERT_EQ(*q.popBack(), ref.back());
                    ref.pop_back();
                }
                break;
              case 6:
                if (rng.below(16) == 0) {
                    q.clear();
                    ref.clear();
                }
                break;
              default:
                if (!ref.empty()) {
                    ASSERT_EQ(*q.front(), ref.front());
                    ASSERT_EQ(*q.back(), ref.back());
                    const std::size_t i = rng.below(ref.size());
                    ASSERT_EQ(*q.at(i), ref[i]);
                    ASSERT_EQ(*q[i], ref[i]);
                }
                break;
            }
            ASSERT_EQ(q.size(), ref.size());
            ASSERT_EQ(q.empty(), ref.empty());
            ASSERT_EQ(q.full(), ref.size() == cap);
            ASSERT_EQ(q.freeEntries(), cap - ref.size());
            ASSERT_EQ(live, static_cast<int>(ref.size()));
        }
        // Full sweep of the final contents, both accessors.
        for (std::size_t i = 0; i < ref.size(); ++i) {
            EXPECT_EQ(*q.at(i), ref[i]);
            EXPECT_EQ(*q[i], ref[i]);
        }
        EXPECT_GT(next, static_cast<int>(20 * cap)) << "too few wraps";
    }
}
