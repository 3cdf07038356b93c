/**
 * @file
 * DynInstPool and the intrusive DynInstPtr: storage reuse across
 * squash/commit churn, refcount correctness (no premature or double
 * free), checkpoint ownership, and clean state on recycled slots.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/circular_queue.hh"
#include "core/dyn_inst_pool.hh"
#include "sim/simulator.hh"

using namespace sciq;

namespace {

TEST(DynInstPtr, RefCountingBasics)
{
    DynInstPtr a = makeDynInst();
    EXPECT_EQ(a.useCount(), 1u);

    DynInstPtr b = a;
    EXPECT_EQ(a.useCount(), 2u);
    EXPECT_TRUE(a == b);

    DynInstPtr c = std::move(b);
    EXPECT_EQ(a.useCount(), 2u);
    EXPECT_TRUE(b == nullptr);

    c.reset();
    EXPECT_EQ(a.useCount(), 1u);

    DynInstPtr d;
    EXPECT_FALSE(d);
    EXPECT_TRUE(d == nullptr);
    d = a;
    EXPECT_EQ(a.useCount(), 2u);
    d = nullptr;
    EXPECT_EQ(a.useCount(), 1u);
}

TEST(DynInstPtr, SelfAssignment)
{
    DynInstPtr a = makeDynInst();
    a = *&a;  // NOLINT: deliberate self-assignment
    EXPECT_EQ(a.useCount(), 1u);
    EXPECT_TRUE(a);
}

TEST(DynInstPool, ReusesStorageLifo)
{
    DynInstPool pool;
    DynInstPtr a = pool.create();
    DynInst *raw = a.get();
    EXPECT_EQ(pool.liveCount(), 1u);

    a.reset();
    EXPECT_EQ(pool.liveCount(), 0u);

    DynInstPtr b = pool.create();
    EXPECT_EQ(b.get(), raw) << "freed slot was not recycled";
    EXPECT_EQ(pool.slotsAllocated(), 1u);
    EXPECT_EQ(pool.slotsReused(), 1u);
}

TEST(DynInstPool, RecycledSlotIsFreshlyConstructed)
{
    DynInstPool pool;
    DynInstPtr a = pool.create();
    a->seq = 1234;
    a->squashed = true;
    a->seg.headedChain = 3;
    a->seg.chainReleased = true;
    a->ideal.pendingOps = 2;
    a->ideal.inQueue = true;
    a->checkpoint = std::make_unique<FetchCheckpoint>();
    DynInst *raw = a.get();
    a.reset();

    DynInstPtr b = pool.create();
    ASSERT_EQ(b.get(), raw);
    EXPECT_EQ(b->seq, kInvalidSeqNum);
    EXPECT_FALSE(b->squashed);
    EXPECT_EQ(b->seg.headedChain, kNoChain);
    EXPECT_FALSE(b->seg.chainReleased);
    EXPECT_EQ(b->ideal.pendingOps, 0);
    EXPECT_FALSE(b->ideal.inQueue);
    EXPECT_EQ(b->checkpoint, nullptr)
        << "recycled slot leaked the previous checkpoint";
}

TEST(DynInstPool, HoldersKeepInstAliveAcrossRelease)
{
    DynInstPool pool;
    DynInstPtr a = pool.create();
    a->seq = 42;
    DynInstPtr rob_copy = a;
    DynInstPtr lsq_copy = a;

    // A squash drops two of the three references; the slot must not be
    // recycled while the last holder is live.
    a.reset();
    rob_copy.reset();
    EXPECT_EQ(pool.liveCount(), 1u);
    EXPECT_EQ(lsq_copy->seq, 42u);

    DynInstPtr other = pool.create();
    EXPECT_NE(other.get(), lsq_copy.get());

    lsq_copy.reset();
    EXPECT_EQ(pool.liveCount(), 1u);  // `other` still live
}

TEST(DynInstPool, WindowChurnStaysWithinBoundedSlabs)
{
    DynInstPool pool(64);
    std::vector<DynInstPtr> window;
    // 8-wide fetch / retire churn far beyond one slab's worth.
    for (int round = 0; round < 1000; ++round) {
        for (int i = 0; i < 8; ++i)
            window.push_back(pool.create());
        if (window.size() >= 128)
            window.erase(window.begin(), window.begin() + 8);
    }
    EXPECT_EQ(pool.liveCount(), window.size());
    // Steady state: allocations bounded by the window, not the total.
    EXPECT_LE(pool.slotsAllocated(), 192u);
    EXPECT_GT(pool.slotsReused(), 0u);
    window.clear();
    EXPECT_EQ(pool.liveCount(), 0u);
}

TEST(DynInstPool, CheckpointOwnershipSurvivesCopies)
{
    DynInstPool pool;
    DynInstPtr inst = pool.create();
    inst->checkpoint = std::make_unique<FetchCheckpoint>();
    inst->checkpoint->regs[3] = 99;

    DynInstPtr copy = inst;
    inst.reset();
    ASSERT_NE(copy->checkpoint, nullptr);
    EXPECT_EQ(copy->checkpoint->regs[3], 99u);
}

/**
 * Regression for the CircularQueue::clear() leak: the ROB and LSQ are
 * CircularQueue<DynInstPtr>, and a clear() that only reset the indices
 * left every abandoned slot holding a reference -- the pool reported
 * those instructions live forever (exactly what the auditor's pool
 * bound flags).
 */
TEST(DynInstPool, CircularQueueClearDropsReferences)
{
    DynInstPool pool;
    CircularQueue<DynInstPtr> rob(8);
    for (int i = 0; i < 6; ++i)
        rob.pushBack(pool.create());
    // Pop a couple first so the live region is offset from slot 0, the
    // way a real ROB wraps.
    (void)rob.popFront();
    (void)rob.popFront();
    rob.pushBack(pool.create());
    EXPECT_EQ(pool.liveCount(), 5u);

    rob.clear();
    EXPECT_EQ(pool.liveCount(), 0u)
        << "clear() left DynInstPtrs alive in the abandoned slots";

    // The recycled slots are reusable immediately.
    DynInstPtr fresh = pool.create();
    EXPECT_GT(pool.slotsReused(), 0u);
    EXPECT_EQ(pool.liveCount(), 1u);
}

/**
 * End-to-end: a full simulation (squashes included) on the pooled
 * allocator still validates against the golden model, and the pool
 * drains once the core is gone.
 */
TEST(DynInstPool, FullSimulationValidates)
{
    SimConfig cfg = makeSegmentedConfig(64, 32, true, true, "twolf");
    cfg.wl.iterations = 300;
    RunResult r = runSim(cfg);
    EXPECT_TRUE(r.haltedCleanly);
    EXPECT_TRUE(r.validated);
    EXPECT_GT(r.insts, 0u);
}

} // namespace
