/**
 * @file
 * Bit-identity tests for the basic-block-cached functional interpreter
 * (DESIGN.md §14).  The contract under test: with the block cache
 * versus the step()-based reference (a FunctionalCore built without
 * it), architectural state, `executed` counts, warm states and
 * whole-simulation stats are identical — the cache is pure
 * acceleration, never policy.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <tuple>

#include "core/ooo_core.hh"
#include "isa/asm_builder.hh"
#include "isa/assembler.hh"
#include "isa/functional_core.hh"
#include "sim/checkpoint.hh"
#include "sim/fast_forward.hh"
#include "sim/simulator.hh"
#include "workload/workloads.hh"

using namespace sciq;

namespace {

/** Captured architectural state `a` must equal `b`, field by field. */
void
expectSameState(const FunctionalCore::State &a,
                const FunctionalCore::State &b)
{
    EXPECT_EQ(a.executed, b.executed);
    EXPECT_EQ(a.pc, b.pc);
    EXPECT_EQ(a.halted, b.halted);
    EXPECT_EQ(a.regs, b.regs);
    EXPECT_TRUE(a.memory.equalContents(b.memory));
    EXPECT_EQ(a.memory.numPages(), b.memory.numPages());
}

/** Architectural state of `a` must equal `b`, field by field. */
void
expectSameArchState(const FunctionalCore &a, const FunctionalCore &b)
{
    expectSameState(a.capture(), b.capture());
}

SimConfig
testConfig(const std::string &workload)
{
    SimConfig cfg = makeSegmentedConfig(128, 64, true, true, workload);
    cfg.wl.iterations = 300;
    cfg.fastForward = 1500;
    cfg.validate = true;
    return cfg;
}

std::string
statsDump(Simulator &sim)
{
    std::ostringstream os;
    sim.core().statGroup().dumpJson(os);
    return os.str();
}

} // namespace

// ---------------------------------------------------------------------
// Full-run identity on every workload kernel.

class BbCacheIdentity : public ::testing::TestWithParam<std::string>
{
};

TEST_P(BbCacheIdentity, RunToHaltMatchesStepReference)
{
    const Program prog =
        buildWorkload(GetParam(), {.iterations = 300});

    FunctionalCore ref(prog, false);
    FunctionalCore bb(prog, true);
    const std::uint64_t ranRef = ref.run();
    const std::uint64_t ranBb = bb.run();

    EXPECT_EQ(ranRef, ranBb);
    EXPECT_TRUE(bb.halted());
    expectSameArchState(ref, bb);
}

// Name kept from when the states compared were byte blobs.
TEST_P(BbCacheIdentity, MidRunBlobsAreByteIdentical)
{
    const Program prog =
        buildWorkload(GetParam(), {.iterations = 300});

    // Stop mid-run (inside loop bodies, not at a block edge) and
    // demand identical architectural states: the block path must
    // neither overshoot the boundary nor allocate pages the step
    // reference would not.
    for (std::uint64_t n : {1ULL, 137ULL, 1500ULL, 20011ULL}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        FunctionalCore ref(prog, false);
        FunctionalCore bb(prog, true);
        EXPECT_EQ(ref.run(n), bb.run(n));
        expectSameArchState(ref, bb);
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, BbCacheIdentity,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

// ---------------------------------------------------------------------
// Boundary torture: exact stops at every offset around block edges.

TEST(BbCacheBoundary, EveryStopOffsetMatchesStepReference)
{
    // gcc is the branchiest kernel: short blocks, both branch
    // directions taken, so consecutive stop offsets land on block
    // starts, interiors, terminators and freshly-split suffixes.
    const Program prog = buildWorkload("gcc", {.iterations = 50});

    FunctionalCore ref(prog, false);
    std::uint64_t steps = 0;
    for (std::uint64_t n = 0; n <= 400; ++n) {
        // Advance the incremental step reference to exactly n insts.
        for (; steps < n && ref.step(); ++steps) {
        }
        FunctionalCore bb(prog, true);
        EXPECT_EQ(bb.run(n), n);
        EXPECT_EQ(bb.instCount(), ref.instCount()) << "n=" << n;
        EXPECT_EQ(bb.pc(), ref.pc()) << "n=" << n;
        EXPECT_EQ(bb.regFile(), ref.regFile()) << "n=" << n;
    }
}

TEST(BbCacheBoundary, ChunkedResumeMatchesOneShot)
{
    const Program prog = buildWorkload("twolf", {.iterations = 100});

    FunctionalCore oneShot(prog, true);
    oneShot.run();

    // Same program replayed in adversarial chunk sizes: every resume
    // re-enters through lookup(curPc) and may split blocks anywhere.
    FunctionalCore chunked(prog, true);
    std::uint64_t chunk = 1;
    while (!chunked.halted()) {
        chunked.run(chunk % 97 + 1);
        ++chunk;
    }
    expectSameArchState(oneShot, chunked);
}

TEST(BbCacheBoundary, RunPastHaltExecutesNothing)
{
    const Program prog = buildWorkload("swim", {.iterations = 20});
    FunctionalCore ref(prog, false);
    FunctionalCore bb(prog, true);
    ref.run();
    bb.run();
    ASSERT_TRUE(bb.halted());
    EXPECT_EQ(bb.run(10), 0u);
    EXPECT_EQ(ref.run(10), 0u);
    expectSameArchState(ref, bb);
}

// ---------------------------------------------------------------------
// Indirect control flow through the one-entry inline cache.

TEST(BbCacheIndirect, AlternatingTargetsMatchStepReference)
{
    // r1 flips between two handler addresses every iteration, so the
    // indirect inline cache misses constantly and must re-resolve
    // through lookup() without corrupting the replay.  The handler
    // addresses are captured at runtime via jal's link value (the
    // instruction following the jal is the handler).
    Program prog = assemble(R"(
        addi r5, r0, 200     # iterations
        addi r10, r0, 0
        jal r2, skip_a       # r2 = addr(handler_a), jump over it
    handler_a:
        addi r10, r10, 3
        addi r1, r3, 0       # next time: handler_b
        jr r6                # return to join
    skip_a:
        jal r3, skip_b       # r3 = addr(handler_b), jump over it
    handler_b:
        addi r10, r10, 5
        addi r1, r2, 0       # next time: handler_a
        jr r6
    skip_b:
        addi r1, r2, 0       # first dispatch: handler_a
    loop:
        jalr r6, r1          # r6 = addr(join)
        addi r5, r5, -1
        bne r5, r0, loop
        halt
    )");

    FunctionalCore ref(prog, false);
    FunctionalCore bb(prog, true);
    ref.run();
    bb.run();
    expectSameArchState(ref, bb);
    EXPECT_EQ(bb.reg(intReg(10)), 200u / 2 * (3 + 5));

    ASSERT_NE(bb.blockCache(), nullptr);
    EXPECT_GT(bb.blockCache()->blocksDiscovered(), 0u);
    EXPECT_GT(bb.blockCache()->succHits(), 0u);
}

// ---------------------------------------------------------------------
// Block-cache plumbing and observability.

TEST(BbCachePlumbing, DisabledCoreHasNoCache)
{
    const Program prog = buildWorkload("swim", {.iterations = 20});
    FunctionalCore ref(prog, false);
    EXPECT_FALSE(ref.blockCacheEnabled());
    EXPECT_EQ(ref.blockCache(), nullptr);

    FunctionalCore bb(prog, true);
    EXPECT_TRUE(bb.blockCacheEnabled());
    ASSERT_NE(bb.blockCache(), nullptr);
}

TEST(BbCachePlumbing, CountersAreCoherent)
{
    const Program prog = buildWorkload("mgrid", {.iterations = 100});
    FunctionalCore bb(prog, true);
    bb.run();
    const BbCache &c = *bb.blockCache();
    EXPECT_GT(c.blocksDiscovered(), 0u);
    EXPECT_GE(c.opsCached(), c.blocksDiscovered());
    // Steady-state loops must chain through the successor caches, not
    // the hash lookup: transitions vastly outnumber discoveries.
    EXPECT_GT(c.succHits(), 10 * c.blocksDiscovered());
}

// ---------------------------------------------------------------------
// Functional warming: trained state and warm states.

class BbCacheWarm : public ::testing::TestWithParam<std::string>
{
};

// Name kept from when a warm state was a byte blob.
TEST_P(BbCacheWarm, CheckpointBlobBytesIdentical)
{
    const SimConfig cfg = testConfig(GetParam());
    const Program prog = buildWorkload(GetParam(), cfg.wl);

    WarmState warm[2];
    for (bool bb : {false, true}) {
        FunctionalCore golden(prog, bb);
        OooCore core(prog, cfg.core);
        FastForwardStats ff = fastForward(golden, core, cfg.fastForward);
        warm[bb ? 1 : 0] =
            WarmState::capture(golden, core, ff, prog.checksum());
    }
    // Same registers, PC, memory image, warm caches, predictor tables
    // and stat counters.
    const WarmState &ref = warm[0];
    const WarmState &bb = warm[1];
    EXPECT_EQ(ref.ff.instsSkipped, bb.ff.instsSkipped);
    EXPECT_EQ(ref.ff.memAccessesWarmed, bb.ff.memAccessesWarmed);
    EXPECT_EQ(ref.ff.branchesWarmed, bb.ff.branchesWarmed);
    EXPECT_EQ(ref.ff.hitHalt, bb.ff.hitHalt);
    expectSameState(ref.func, bb.func);
    EXPECT_GT(ref.func.memory.numPages(), 0u);
    EXPECT_TRUE(ref.l1i == bb.l1i);
    EXPECT_TRUE(ref.l1d == bb.l1d);
    EXPECT_TRUE(ref.l2 == bb.l2);
    EXPECT_TRUE(ref.bp == bb.bp);
    EXPECT_TRUE(ref.btb == bb.btb);
    EXPECT_TRUE(ref.ras == bb.ras);
    EXPECT_TRUE(ref.hmp == bb.hmp);
    EXPECT_TRUE(ref.lrp == bb.lrp);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, BbCacheWarm,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

TEST(BbCacheWarm, CrossModeRestoredMatchesColdBitForBit)
{
    // The strongest end-to-end form: warm up and capture with the step
    // reference, publish the warm state into the cache a Simulator run
    // (which warms with the block cache) restores from, and demand the
    // whole stats tree match a cold run byte for byte.
    const SimConfig cfg = testConfig("vortex");
    const Program prog = buildWorkload(cfg.workload, cfg.wl);
    FunctionalCore ref(prog, false);
    OooCore core(prog, cfg.core);
    const FastForwardStats ff =
        fastForwardUnseeded(ref, core, cfg.fastForward);

    SimConfig cached = cfg;
    cached.ckptCache = std::make_shared<CheckpointCache>();
    const std::uint64_t key = checkpointKeyHash(cfg);
    ASSERT_EQ(cached.ckptCache->findOrBegin(key), nullptr);
    cached.ckptCache->publish(
        key, WarmState::capture(ref, core, ff, prog.checksum()));

    Simulator coldSim(cfg);
    RunResult cold = coldSim.run();
    EXPECT_FALSE(cold.ckptRestored);
    ASSERT_TRUE(cold.haltedCleanly);
    ASSERT_TRUE(cold.validated);

    Simulator restored(cached);
    RunResult warm = restored.run();
    EXPECT_TRUE(warm.ckptRestored);
    ASSERT_TRUE(warm.haltedCleanly);
    ASSERT_TRUE(warm.validated);

    EXPECT_EQ(cold.cycles, warm.cycles);
    EXPECT_EQ(cold.insts, warm.insts);
    EXPECT_EQ(statsDump(coldSim), statsDump(restored));
}

TEST(BbCacheWarm, FastForwardStatsMatchStepReference)
{
    const Program prog = buildWorkload("ammp", {.iterations = 300});
    SimConfig cfg = testConfig("ammp");

    FastForwardStats stats[2];
    for (bool bb : {false, true}) {
        FunctionalCore golden(prog, bb);
        OooCore core(prog, cfg.core);
        stats[bb ? 1 : 0] = fastForward(golden, core, 5000);
    }
    EXPECT_EQ(stats[0].instsSkipped, stats[1].instsSkipped);
    EXPECT_EQ(stats[0].memAccessesWarmed, stats[1].memAccessesWarmed);
    EXPECT_EQ(stats[0].branchesWarmed, stats[1].branchesWarmed);
    EXPECT_EQ(stats[0].hitHalt, stats[1].hitHalt);
}

TEST(BbCacheWarm, HaltDuringWarmupMatchesStepReference)
{
    // Warm-up budget far past the program's end: both paths must stop
    // at HALT, exclude it from instsSkipped, and leave identical
    // architectural state.
    const Program prog = buildWorkload("equake", {.iterations = 20});
    SimConfig cfg = testConfig("equake");

    FunctionalCore goldenRef(prog, false);
    FunctionalCore goldenBb(prog, true);
    OooCore coreRef(prog, cfg.core);
    OooCore coreBb(prog, cfg.core);
    FastForwardStats ffRef =
        fastForward(goldenRef, coreRef, ~0ULL >> 1);
    FastForwardStats ffBb = fastForward(goldenBb, coreBb, ~0ULL >> 1);

    EXPECT_TRUE(ffRef.hitHalt);
    EXPECT_TRUE(ffBb.hitHalt);
    EXPECT_EQ(ffRef.instsSkipped, ffBb.instsSkipped);
    expectSameArchState(goldenRef, goldenBb);
}
