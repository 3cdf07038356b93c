/** @file Timing and behaviour tests for the cache and memory models. */

#include <gtest/gtest.h>

#include <functional>
#include <tuple>
#include <utility>
#include <vector>

#include "common/event_queue.hh"
#include "common/logging.hh"
#include "event_harness.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/main_memory.hh"

using namespace sciq;
using namespace sciq::test;

namespace {

/** A fixed-latency backing level that records requests. */
class FakeLevel : public MemLevel
{
  public:
    FakeLevel(EventQueue &ev, unsigned latency) : events(ev), lat(latency)
    {
    }

    void
    request(Addr line, bool is_write, Cycle now, MemReply reply) override
    {
        requests.push_back({line, is_write, now});
        events.schedule(now + lat, reply.sink, kLineArrived, reply.tag);
    }

    struct Req
    {
        Addr line;
        bool write;
        Cycle at;
    };

    std::vector<Req> requests;

  private:
    EventQueue &events;
    unsigned lat;
};

/** A backing level whose fills the test completes by hand. */
class ManualLevel : public MemLevel
{
  public:
    void
    request(Addr line, bool is_write, Cycle now, MemReply reply) override
    {
        requests.push_back({line, is_write, now, reply});
    }

    struct Req
    {
        Addr line;
        bool write;
        Cycle at;
        MemReply reply;

        /** The line arrives back at the requester at `when`. */
        void done(Cycle when) const { reply.deliver(when, kLineArrived); }
    };

    std::vector<Req> requests;
};

/** Recording sink of one access: its completion and miss notice. */
struct Result : EventTarget
{
    Cycle when = 0;
    AccessOutcome outcome{};
    bool done = false;
    Cycle missAt = 0;

    void
    handleEvent(Cycle at, unsigned kind, std::uint64_t) override
    {
        if (kind == kMissNotify) {
            missAt = at;
            return;
        }
        when = at;
        outcome = static_cast<AccessOutcome>(kind);
        done = true;
    }
};

MemReply
capture(Result &r)
{
    return MemReply{&r, 0};
}

CacheParams
smallCache()
{
    CacheParams p;
    p.name = "test";
    p.sizeBytes = 1024;  // 16 lines
    p.assoc = 2;
    p.lineBytes = 64;
    p.latency = 3;
    p.mshrs = 4;
    p.fillBandwidth = 1;
    return p;
}

} // namespace

TEST(Cache, MissThenHitLatency)
{
    EventQueue ev;
    FakeLevel below(ev, 20);
    Cache c(smallCache(), below, ev);

    Result miss;
    c.access(0x1000, false, 0, capture(miss));
    ev.runUntil(100);
    ASSERT_TRUE(miss.done);
    EXPECT_EQ(miss.outcome, AccessOutcome::Miss);
    // lookup (3) + below (20) = 23.
    EXPECT_EQ(miss.when, 23u);
    ASSERT_EQ(below.requests.size(), 1u);
    EXPECT_EQ(below.requests[0].line, 0x1000u);

    Result hit;
    c.access(0x1008, false, 100, capture(hit));  // same line
    ev.runUntil(200);
    ASSERT_TRUE(hit.done);
    EXPECT_EQ(hit.outcome, AccessOutcome::Hit);
    EXPECT_EQ(hit.when, 103u);  // hit latency only
    EXPECT_EQ(below.requests.size(), 1u);  // no new fill
}

TEST(Cache, DelayedHitMergesIntoMshr)
{
    EventQueue ev;
    FakeLevel below(ev, 50);
    Cache c(smallCache(), below, ev);

    Result first, second;
    c.access(0x2000, false, 0, capture(first));
    c.access(0x2010, false, 1, capture(second));  // same line, in flight
    ev.runUntil(200);
    ASSERT_TRUE(first.done && second.done);
    EXPECT_EQ(first.outcome, AccessOutcome::Miss);
    EXPECT_EQ(second.outcome, AccessOutcome::DelayedHit);
    EXPECT_EQ(first.when, second.when);  // both complete with the fill
    EXPECT_EQ(below.requests.size(), 1u);  // one fill serves both
    EXPECT_EQ(c.delayedHits.value(), 1.0);
    EXPECT_EQ(c.misses.value(), 1.0);
}

TEST(Cache, MissNotificationFiresAtLookup)
{
    EventQueue ev;
    FakeLevel below(ev, 50);
    Cache c(smallCache(), below, ev);

    Result r;
    c.access(0x3000, false, 10, capture(r), true);
    ev.runUntil(200);
    EXPECT_EQ(r.missAt, 13u);  // miss detected at lookup time
    EXPECT_GT(r.when, r.missAt);

    // Hits never call the miss notification.
    Result h;
    c.access(0x3000, false, 200, capture(h), true);
    ev.runUntil(300);
    EXPECT_EQ(h.missAt, 0u);
}

TEST(Cache, LruEviction)
{
    EventQueue ev;
    FakeLevel below(ev, 10);
    CacheParams p = smallCache();  // 8 sets x 2 ways
    Cache c(p, below, ev);

    // Three lines mapping to the same set (stride = numSets*lineBytes).
    const Addr stride = 8 * 64;
    Result r;
    c.access(0x0, false, 0, capture(r));
    ev.runUntil(50);
    c.access(stride, false, 50, capture(r));
    ev.runUntil(100);
    // Touch line 0 so `stride` becomes LRU.
    c.access(0x0, false, 100, capture(r));
    ev.runUntil(150);
    c.access(2 * stride, false, 150, capture(r));
    ev.runUntil(250);

    EXPECT_TRUE(c.isResident(0x0));
    EXPECT_FALSE(c.isResident(stride));  // evicted (LRU)
    EXPECT_TRUE(c.isResident(2 * stride));
}

TEST(Cache, DirtyEvictionWritesBack)
{
    EventQueue ev;
    FakeLevel below(ev, 10);
    Cache c(smallCache(), below, ev);

    const Addr stride = 8 * 64;
    Result r;
    c.access(0x0, true, 0, capture(r));  // write-allocate, dirty
    ev.runUntil(50);
    c.access(stride, false, 50, capture(r));
    ev.runUntil(100);
    c.access(2 * stride, false, 100, capture(r));
    ev.runUntil(200);

    bool saw_writeback = false;
    for (const auto &req : below.requests)
        saw_writeback |= req.write && req.line == 0x0;
    EXPECT_TRUE(saw_writeback);
    EXPECT_EQ(c.writebacks.value(), 1.0);
}

TEST(Cache, MshrLimitDefersMisses)
{
    EventQueue ev;
    FakeLevel below(ev, 100);
    CacheParams p = smallCache();
    p.mshrs = 2;
    Cache c(p, below, ev);

    Result r[3];
    c.access(0x0000, false, 0, capture(r[0]));
    c.access(0x1000, false, 0, capture(r[1]));
    c.access(0x2000, false, 0, capture(r[2]));  // must wait for an MSHR
    ev.runUntil(400);
    ASSERT_TRUE(r[0].done && r[1].done && r[2].done);
    // The third miss finds both MSHRs busy at its lookup (cycle 3) and
    // retries every cycle until the two fills free them at 103; the
    // fills run before that cycle's retry, so it claims one at 103.
    EXPECT_EQ(c.mshrFullStalls.value(), 100.0);
    EXPECT_EQ(r[0].when, 103u);
    EXPECT_EQ(r[1].when, 103u);
    EXPECT_EQ(r[2].when, 203u);
    EXPECT_EQ(r[2].outcome, AccessOutcome::Miss);
    ASSERT_EQ(below.requests.size(), 3u);
    EXPECT_EQ(below.requests[2].at, 103u);
}

TEST(Cache, NewestWaiterClaimsFreedMshrFirst)
{
    // Five misses to distinct lines, one per cycle, with two MSHRs.
    // The three that find the file full retry newest-first: a fresh
    // lookup failure was scheduled before the older misses' retries, so
    // it is re-queued ahead of them every cycle.
    EventQueue ev;
    FakeLevel below(ev, 100);
    CacheParams p = smallCache();
    p.mshrs = 2;
    Cache c(p, below, ev);

    Result r[5];
    for (int i = 0; i < 5; ++i) {
        ev.runUntil(i);
        c.access(0x1000 * i, false, i, capture(r[i]));
    }
    ev.runUntil(1000);
    for (const Result &res : r)
        ASSERT_TRUE(res.done);
    EXPECT_EQ(r[0].when, 103u);
    EXPECT_EQ(r[1].when, 104u);
    EXPECT_EQ(r[2].when, 303u);
    EXPECT_EQ(r[3].when, 204u);
    EXPECT_EQ(r[4].when, 203u);
    EXPECT_EQ(c.mshrFullStalls.value(), 392.0);
    EXPECT_EQ(c.misses.value(), 5.0);
}

TEST(Cache, FreshMissAllocatesParkedWaitersLine)
{
    // A miss to line L waits for the only MSHR.  When it frees, a fresh
    // lookup of L (scheduled before the waiter's retry) allocates L's
    // MSHR; the waiter's retry in the same cycle then merges into it
    // and completes with the same fill.
    EventQueue ev;
    FakeLevel below(ev, 100);
    CacheParams p = smallCache();
    p.mshrs = 1;
    Cache c(p, below, ev);

    Result a, waiter, fresh;
    c.access(0x0000, false, 0, capture(a));
    c.access(0x2000, false, 0, capture(waiter));
    ev.runUntil(100);
    c.access(0x2008, false, 100, capture(fresh));
    ev.runUntil(1000);
    ASSERT_TRUE(a.done && waiter.done && fresh.done);
    EXPECT_EQ(a.when, 103u);
    EXPECT_EQ(fresh.when, 203u);
    EXPECT_EQ(waiter.when, 203u);
    EXPECT_EQ(fresh.outcome, AccessOutcome::Miss);
    EXPECT_EQ(waiter.outcome, AccessOutcome::Miss);
    EXPECT_EQ(c.misses.value(), 3.0);
    EXPECT_EQ(c.delayedHits.value(), 0.0);
    EXPECT_EQ(c.mshrFullStalls.value(), 100.0);
    ASSERT_EQ(below.requests.size(), 2u);
    EXPECT_EQ(below.requests[1].line, 0x2000u);
    EXPECT_EQ(below.requests[1].at, 103u);
}

TEST(Cache, FillOrderedBeforeRetriesFreesMshrThatCycle)
{
    EventQueue ev;
    Actions acts;
    ManualLevel below;
    CacheParams p = smallCache();
    p.mshrs = 1;
    Cache c(p, below, ev);

    Result a, b;
    c.access(0x0000, false, 0, capture(a));
    c.access(0x1000, false, 0, capture(b));
    ev.runUntil(10);
    // Scheduled now, long before the retry for cycle 50 exists.
    acts.at(ev, 50, [&] { below.requests[0].done(50); });
    ev.runUntil(60);
    ASSERT_EQ(below.requests.size(), 2u);
    EXPECT_EQ(below.requests[1].at, 50u);
    EXPECT_EQ(c.mshrFullStalls.value(), 47.0);
    below.requests[1].done(60);
    ev.runUntil(70);
    EXPECT_TRUE(a.done && b.done);
    EXPECT_EQ(b.when, 60u);
}

TEST(Cache, FillOrderedAfterRetriesFreesMshrNextCycle)
{
    EventQueue ev;
    Actions acts;
    ManualLevel below;
    CacheParams p = smallCache();
    p.mshrs = 1;
    Cache c(p, below, ev);

    Result a, b;
    c.access(0x0000, false, 0, capture(a));
    c.access(0x1000, false, 0, capture(b));
    // The retry for cycle 50 is scheduled while cycle 49 runs, so a
    // fill scheduled after that lands behind it: the retry fails once
    // more at 50 and the miss claims the freed MSHR at 51.
    ev.runUntil(49);
    acts.at(ev, 50, [&] { below.requests[0].done(50); });
    ev.runUntil(60);
    ASSERT_EQ(below.requests.size(), 2u);
    EXPECT_EQ(below.requests[1].at, 51u);
    EXPECT_EQ(c.mshrFullStalls.value(), 48.0);
}

TEST(Cache, RetryKeepsItsPlaceBehindALaterScheduledEvent)
{
    // Within cycle 3, B fails (its retry for 4 is scheduled), then an
    // unrelated event schedules A's fill for 4, then C fails.  C's retry
    // fires after the fill and claims the freed MSHR at 4; B's, ordered
    // before the fill, fails once more.
    EventQueue ev;
    Actions acts;
    ManualLevel below;
    CacheParams p = smallCache();
    p.mshrs = 1;
    Cache c(p, below, ev);

    Result a, b, cc;
    c.access(0x0000, false, 0, capture(a));
    c.access(0x1000, false, 0, capture(b));
    acts.at(ev, 3, [&] {
        acts.at(ev, 4, [&] { below.requests[0].done(4); });
    });
    c.access(0x2000, false, 0, capture(cc));
    ev.runUntil(4);
    ASSERT_EQ(below.requests.size(), 2u);
    EXPECT_EQ(below.requests[1].line, 0x2000u);
    EXPECT_EQ(below.requests[1].at, 4u);
    EXPECT_EQ(c.mshrFullStalls.value(), 3.0);
}

TEST(Cache, SingleMshrSerialisesMisses)
{
    EventQueue ev;
    FakeLevel below(ev, 20);
    CacheParams p = smallCache();
    p.mshrs = 1;
    Cache c(p, below, ev);

    Result r[4];
    for (int i = 0; i < 4; ++i)
        c.access(0x1000 * i, false, 0, capture(r[i]));
    ev.runUntil(1000);
    for (const Result &res : r)
        ASSERT_TRUE(res.done);
    EXPECT_EQ(r[0].when, 23u);
    EXPECT_EQ(r[1].when, 43u);
    EXPECT_EQ(r[2].when, 63u);
    EXPECT_EQ(r[3].when, 83u);
    EXPECT_EQ(c.mshrFullStalls.value(), 120.0);
}

TEST(Hierarchy, SaturatedMshrsExactTiming)
{
    // 96 independent L1D misses and 48 L1I misses over three cycles
    // oversubscribe the L1D's 32 MSHRs, and the two L1s together the
    // L2's; every completion cycle and both stall counts are pinned.
    MemHierarchy h;
    Recorder rec;
    for (int i = 0; i < 144; ++i) {
        const Cycle now = i / 48;
        h.tick(now);
        Cache &l1 = i % 3 == 2 ? h.icache() : h.dcache();
        l1.access(0x100000 + 64 * i, false, now,
                  MemReply{&rec, static_cast<std::uint64_t>(i)});
    }
    h.tick(5000);
    std::vector<Cycle> done(144, 0);
    for (const Recorder::Fired &f : rec.fired)
        done[f.arg] = f.when;
    std::uint64_t sum = 0, hash = 0;
    for (Cycle when : done) {
        ASSERT_NE(when, 0u);
        sum += when;
        hash = hash * 1000003u + when;
    }
    EXPECT_EQ(sum, 99648u);
    EXPECT_EQ(hash, 15866423049783132352u);
    EXPECT_EQ(done.front(), 376u);
    EXPECT_EQ(done.back(), 512u);
    EXPECT_EQ(h.dcache().mshrFullStalls.value(), 47840.0);
    EXPECT_EQ(h.l2cache().mshrFullStalls.value(), 11514.0);
}

TEST(Cache, FillBandwidthSerialisesLowerLevel)
{
    EventQueue ev;
    MainMemoryParams mp;
    mp.latency = 10;
    mp.bytesPerCycle = 8;
    mp.lineBytes = 64;  // 8 cycles per line on the bus
    MainMemory mem(mp, ev);

    Recorder rec;
    for (int i = 0; i < 3; ++i)
        mem.request(0x1000 + 64 * i, false, 0, MemReply{&rec, 0});
    ev.runUntil(200);
    std::vector<Cycle> done;
    for (const Recorder::Fired &f : rec.fired)
        done.push_back(f.when);
    ASSERT_EQ(done.size(), 3u);
    // First: 10 + 8 = 18; subsequent transfers queue on the bus.
    EXPECT_EQ(done[0], 18u);
    EXPECT_EQ(done[1], 26u);
    EXPECT_EQ(done[2], 34u);
}

TEST(Hierarchy, L1MissL2HitLatency)
{
    HierarchyParams hp;
    MemHierarchy h(hp);

    // Warm the L2 with a line, then flush the L1 only.
    Result warm;
    h.dcache().access(0x8000, false, 0, capture(warm));
    h.tick(500);
    ASSERT_TRUE(warm.done);
    h.dcache().flush();

    Result r;
    h.dcache().access(0x8000, false, 500, capture(r));
    h.tick(1000);
    ASSERT_TRUE(r.done);
    EXPECT_EQ(r.outcome, AccessOutcome::Miss);
    // L1 lookup 3 + L2 lookup 10 + transfer 1 = 14.
    EXPECT_EQ(r.when, 514u);
}

TEST(Hierarchy, FullMissGoesToMemory)
{
    HierarchyParams hp;
    MemHierarchy h(hp);

    Result r;
    h.dcache().access(0x9000, false, 0, capture(r));
    h.tick(500);
    ASSERT_TRUE(r.done);
    // 3 (L1) + 10 (L2) + 100 (mem) + 8 (bus) + 1 (L2->L1) = 122.
    EXPECT_EQ(r.when, 122u);
    EXPECT_EQ(h.memory().reads.value(), 1.0);
}

TEST(Hierarchy, IndependentMissesOverlap)
{
    // The mechanism the whole paper leans on: a large window overlaps
    // many memory accesses, so completion is bandwidth- rather than
    // latency-limited.
    HierarchyParams hp;
    MemHierarchy h(hp);

    Recorder rec;
    for (int i = 0; i < 8; ++i)
        h.dcache().access(0xA0000 + 64 * i, false, 0, MemReply{&rec, 0});
    h.tick(1000);
    std::vector<Cycle> done;
    for (const Recorder::Fired &f : rec.fired)
        done.push_back(f.when);
    ASSERT_EQ(done.size(), 8u);
    // Serialised misses would need 8 x 122 cycles; overlapped they
    // finish within one latency plus seven bus slots.
    EXPECT_LT(done.back(), 122u + 8u * 8u + 10u);
}

TEST(Hierarchy, FlushAllEmptiesCaches)
{
    MemHierarchy h;
    Result r;
    h.dcache().access(0xB000, false, 0, capture(r));
    h.tick(500);
    EXPECT_TRUE(h.dcache().isResident(0xB000));
    h.flushAll();
    EXPECT_FALSE(h.dcache().isResident(0xB000));
    EXPECT_FALSE(h.l2cache().isResident(0xB000));
}

// Name kept from when a warm state was saved and restored as bytes.
TEST(Cache, SaveAndRestoreRefuseWhileAMissIsParked)
{
    EventQueue ev;
    Actions acts;
    ManualLevel below;
    CacheParams p = smallCache();
    p.mshrs = 1;
    Cache c(p, below, ev);

    const Cache::State clean = c.capture();

    Result a, b;
    c.access(0x0000, false, 0, capture(a));
    c.access(0x1000, false, 0, capture(b));
    ev.runUntil(49);
    acts.at(ev, 50, [&] { below.requests[0].done(50); });
    ev.runUntil(50);
    // B's retry failed at 50 before the fill freed the only MSHR: the
    // MSHR file is empty, but B still waits to retry at 51.
    ASSERT_TRUE(a.done);
    ASSERT_EQ(below.requests.size(), 1u);
    EXPECT_EQ(c.parkedMisses(), 1u);
    EXPECT_THROW(c.capture(), PanicError);
    EXPECT_THROW(c.adopt(clean), PanicError);

    ev.runUntil(51);
    EXPECT_EQ(c.parkedMisses(), 0u);
    ASSERT_EQ(below.requests.size(), 2u);
    acts.at(ev, 60, [&] { below.requests[1].done(60); });
    ev.runUntil(60);
    ASSERT_TRUE(b.done);
    EXPECT_NO_THROW(c.capture());
    EXPECT_NO_THROW(c.adopt(clean));
}

TEST(Cache, WaitersRetryAsOneEventAndFailInBulk)
{
    // SingleMshrSerialisesMisses with the audit re-check on.  While the
    // MSHR file is unchanged the waiting misses share one retry event
    // per cycle and fail together; each bulk failure is re-checked.
    EventQueue ev;
    FakeLevel below(ev, 20);
    CacheParams p = smallCache();
    p.mshrs = 1;
    Cache c(p, below, ev);
    c.setAuditWaiters(true);

    Result r[4];
    for (int i = 0; i < 4; ++i)
        c.access(0x1000 * i, false, 0, capture(r[i]));
    ev.runUntil(10);
    EXPECT_EQ(c.parkedMisses(), 3u);
    EXPECT_EQ(ev.size(), 2u);  // the fill and one retry batch
    ev.runUntil(1000);
    EXPECT_EQ(r[3].when, 83u);
    EXPECT_EQ(c.mshrFullStalls.value(), 120.0);
    // Bulk failures: 3 waiters x 19 cycles, then 2 x 19, then 1 x 19.
    EXPECT_EQ(c.mshrWaitChecks(), 114u);
    EXPECT_EQ(c.mshrWaitMismatches(), 0u);
}

namespace {

/** A ManualLevel whose writebacks complete by themselves a cycle later. */
class HandFillLevel : public ManualLevel
{
  public:
    explicit HandFillLevel(EventQueue &ev) : events(ev) {}

    void
    request(Addr line, bool is_write, Cycle now, MemReply reply) override
    {
        ManualLevel::request(line, is_write, now, reply);
        if (is_write)
            events.schedule(now + 1, reply.sink, kLineArrived, reply.tag);
    }

  private:
    EventQueue &events;
};

} // namespace

TEST(Cache, NullSinkWritebackKeepsALaterRetryOutOfTheOpenBatch)
{
    // In cycle 10 the parked misses X1 and X2 fail and open the retry
    // batch for 11.  A fill then evicts a dirty line; its writeback's
    // completion has no sink but is still an event for 11, scheduled
    // after the batch.  Y, failing after it, must open a batch of its
    // own rather than join X1 and X2's.
    EventQueue ev;
    Actions acts;
    HandFillLevel below(ev);
    CacheParams p = smallCache();  // 8 sets x 2 ways
    p.latency = 1;
    p.mshrs = 2;
    Cache c(p, below, ev);

    Result r[7];
    c.access(0x000, true, 0, capture(r[0]));  // set 0, dirty
    ev.runUntil(2);
    below.requests[0].done(2);
    c.access(0x200, false, 2, capture(r[1]));  // set 0, newer
    ev.runUntil(4);
    below.requests[1].done(4);
    c.access(0x400, false, 4, capture(r[2]));  // set 0: will evict 0x000
    c.access(0x040, false, 4, capture(r[3]));  // fills the MSHR file
    c.access(0x080, false, 4, capture(r[4]));  // X1: parks
    c.access(0x0C0, false, 4, capture(r[5]));  // X2: parks
    ev.runUntil(9);
    acts.at(ev, 10, [&] { below.requests[2].done(10); });
    Result y0;
    c.access(0x100, false, 9, capture(y0));  // takes the freed MSHR
    c.access(0x140, false, 9, capture(r[6]));  // Y: finds the file full
    ev.runUntil(10);

    ASSERT_EQ(below.requests.size(), 6u);
    EXPECT_TRUE(below.requests[4].write);
    EXPECT_EQ(below.requests[4].line, 0x000u);
    EXPECT_EQ(below.requests[4].at, 10u);
    EXPECT_EQ(below.requests[5].line, 0x100u);
    EXPECT_EQ(c.writebacks.value(), 1.0);
    EXPECT_EQ(c.parkedMisses(), 3u);
    EXPECT_EQ(ev.size(), 3u);  // X1+X2's batch, the writeback, Y's batch

    // At 11 both batches fail again and join one batch for 12.
    ev.runUntil(11);
    EXPECT_EQ(ev.size(), 1u);
    EXPECT_EQ(c.parkedMisses(), 3u);
    EXPECT_EQ(c.mshrFullStalls.value(), 16.0);
    EXPECT_TRUE(r[2].done);
    EXPECT_EQ(r[2].when, 10u);
}

TEST(Cache, WokenWaiterNestsAFillAndReusesTheFreedMshrs)
{
    // Waking a fill's waiters re-enters the cache: the first waiter's
    // reply completes another line's fill and starts a new access.
    // The parked miss and the new access then claim the two freed
    // MSHRs.  Every waiter is woken once, in arrival order, at the
    // cycles one vector per MSHR gives.
    EventQueue ev;
    Actions acts;
    ManualLevel below;
    CacheParams p = smallCache();
    p.mshrs = 2;
    Cache c(p, below, ev);

    struct Sink : EventTarget
    {
        std::vector<std::tuple<std::uint64_t, Cycle, unsigned>> log;
        std::function<void()> onFirst;

        void
        handleEvent(Cycle when, unsigned kind, std::uint64_t tag) override
        {
            log.emplace_back(tag, when, kind);
            if (onFirst)
                std::exchange(onFirst, nullptr)();
        }
    } sink;
    c.access(0x0000, false, 0, MemReply{&sink, 0});  // A: miss
    c.access(0x0008, false, 0, MemReply{&sink, 1});  // A': merges into A
    c.access(0x1000, false, 0, MemReply{&sink, 2});  // B: miss
    c.access(0x2000, false, 0, MemReply{&sink, 3});  // C: file full, parks
    sink.onFirst = [&] {
        below.requests[1].done(10);                       // B's fill
        c.access(0x3000, false, 10, MemReply{&sink, 4});  // D
    };
    acts.at(ev, 10, [&] { below.requests[0].done(10); });
    ev.runUntil(20);
    ASSERT_EQ(below.requests.size(), 4u);
    EXPECT_EQ(below.requests[2].line, 0x2000u);
    EXPECT_EQ(below.requests[2].at, 10u);
    EXPECT_EQ(below.requests[3].line, 0x3000u);
    EXPECT_EQ(below.requests[3].at, 13u);
    below.requests[3].done(20);
    below.requests[2].done(20);

    constexpr auto kMiss = static_cast<unsigned>(AccessOutcome::Miss);
    constexpr auto kDelayed = static_cast<unsigned>(AccessOutcome::DelayedHit);
    using Entry = std::tuple<std::uint64_t, Cycle, unsigned>;
    EXPECT_EQ(sink.log, (std::vector<Entry>{{0, 10, kMiss},
                                            {2, 10, kMiss},
                                            {1, 10, kDelayed},
                                            {4, 20, kMiss},
                                            {3, 20, kMiss}}));
    EXPECT_EQ(c.misses.value(), 4.0);
    EXPECT_EQ(c.delayedHits.value(), 1.0);
    EXPECT_EQ(c.mshrFullStalls.value(), 7.0);
    EXPECT_EQ(c.parkedMisses(), 0u);
}
