/**
 * @file
 * Shared warm-up tests (DESIGN.md §12).
 *
 * Four layers of coverage:
 *  - the content hashes' known answers and the bulk hash's sensitivity
 *    to every single-bit flip;
 *  - per-component capture -> adopt -> capture round trips must
 *    reproduce the first state exactly, and a state of another
 *    geometry is refused;
 *  - a restored Simulator run must produce byte-identical stats trees
 *    to a cold fast-forwarded run, for every workload on both the
 *    segmented and the ideal IQ (the module's correctness contract),
 *    also when two workers restore at once;
 *  - the cache key separates every configuration that changes the
 *    warm state.
 *
 * Plus CheckpointCache semantics: producer election, memory hits and
 * cancel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "branch/branch_predictor.hh"
#include "branch/btb.hh"
#include "branch/hit_miss_predictor.hh"
#include "branch/left_right_predictor.hh"
#include "branch/ras.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "sim/checkpoint.hh"
#include "sim/fast_forward.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "workload/workloads.hh"

using namespace sciq;

namespace {

SimConfig
testConfig(const std::string &workload, IqKind kind)
{
    SimConfig cfg = makeSegmentedConfig(128, 64, true, true, workload);
    cfg.core.iqKind = kind;
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

/** Architectural state `a` equals `b`, field by field. */
void
expectSameFunc(const FunctionalCore::State &a, const FunctionalCore::State &b)
{
    EXPECT_EQ(a.regs, b.regs);
    EXPECT_EQ(a.pc, b.pc);
    EXPECT_EQ(a.halted, b.halted);
    EXPECT_EQ(a.executed, b.executed);
    EXPECT_EQ(a.memory.numPages(), b.memory.numPages());
    EXPECT_TRUE(a.memory.equalContents(b.memory));
}

/**
 * `r`'s results row without the wall-clock fields and the ones that
 * depend on which job produced a shared warm-up.
 */
std::string
rowJson(RunResult r)
{
    r.hostSeconds = r.hostKcyclesPerSec = r.hostKinstsPerSec = 0.0;
    r.warmSeconds = r.warmInstsPerSec = 0.0;
    r.bbBlocks = r.bbOpsCached = r.bbTraceHits = r.bbSuccHits = 0;
    r.ckptRestored = false;
    std::ostringstream os;
    writeResultsJson(os, {r});
    return os.str();
}

} // namespace

// ---------------------------------------------------------------------
// Content hashes.

TEST(Serialize, FnvMatchesKnownVector)
{
    // FNV-1a 64-bit test vector: empty input hashes to the offset
    // basis, and "a" to 0xaf63dc4c8601ec8c.
    EXPECT_EQ(serial::fnv1a(nullptr, 0), 0xcbf29ce484222325ULL);
    EXPECT_EQ(serial::fnv1a("a", 1), 0xaf63dc4c8601ec8cULL);
}

TEST(Serialize, HashBytesKnownAnswers)
{
    // Input byte i is (7 * i + 1) mod 256.  The values pin the
    // definition documented at serial::hashBytes: little-endian words,
    // four lanes over 32-byte blocks folded with the word step, the
    // 0..3 remaining words and a zero-padded tail word stepped after
    // the fold, and the length in every lane's seed.  The lengths
    // cover no block, part of a block, exactly one, one plus a tail,
    // and many.
    std::vector<std::uint8_t> bytes(4096);
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<std::uint8_t>(7 * i + 1);
    const std::pair<std::size_t, std::uint64_t> known[] = {
        {0, 0xa53998cf595eb19aULL},    {1, 0x65dd5ebc6d4d93e4ULL},
        {7, 0x1d0bf764bfbca45aULL},    {8, 0x667993ec6106090cULL},
        {9, 0xfe40c4dce45e6782ULL},    {31, 0xa99925f99b057386ULL},
        {32, 0xbe188d92d9b82a71ULL},   {33, 0x45c39805fc4dc470ULL},
        {40, 0x56d57b23898c054bULL},   {64, 0x036d645ed09fd157ULL},
        {65, 0xe1bf77814ce9d20dULL},   {4096, 0x220c2d964bf0e6ebULL},
    };
    for (const auto &[len, want] : known)
        EXPECT_EQ(serial::hashBytes(bytes.data(), len), want) << "len " << len;
    EXPECT_EQ(serial::hashBytes(nullptr, 0), known[0].second);
}

TEST(Serialize, HashBytesSeesEverySingleBitFlip)
{
    // Every step of the hash is a bijection of the word and of the
    // state, and the lane fold is a bijection of each lane, so no
    // flip can cancel out.  The lengths put flips in every lane of
    // one and two blocks, in the whole tail words after the blocks and
    // in an unaligned tail.
    for (std::size_t len : {31u, 32u, 33u, 64u, 65u, 75u}) {
        std::vector<std::uint8_t> bytes(len);
        for (std::size_t i = 0; i < bytes.size(); ++i)
            bytes[i] = static_cast<std::uint8_t>(i * 29);
        const std::uint64_t base =
            serial::hashBytes(bytes.data(), bytes.size());
        for (std::size_t i = 0; i < bytes.size(); ++i) {
            for (unsigned bit = 0; bit < 8; ++bit) {
                bytes[i] ^= static_cast<std::uint8_t>(1u << bit);
                EXPECT_NE(serial::hashBytes(bytes.data(), bytes.size()),
                          base)
                    << "len " << len << " byte " << i << " bit " << bit;
                bytes[i] ^= static_cast<std::uint8_t>(1u << bit);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Per-component round trips: capture -> adopt -> capture reproduces the
// first state exactly.

TEST(CheckpointComponents, SparseMemoryRoundTrip)
{
    // A warm state's image is a copy: equal to its source and
    // independent of it afterwards.
    SparseMemory mem;
    mem.write(0x1000, 8, 0x1122334455667788ULL);
    mem.write(0x20'0000, 8, 42);
    mem.write(0x3f'ffff, 1, 0x7f);

    SparseMemory back = mem;
    EXPECT_EQ(back.read(0x1000, 8), 0x1122334455667788ULL);
    EXPECT_EQ(back.read(0x3f'ffff, 1), 0x7fu);
    EXPECT_EQ(back.numPages(), mem.numPages());
    EXPECT_TRUE(back.equalContents(mem));

    back.write(0x1000, 8, 0);
    EXPECT_EQ(mem.read(0x1000, 8), 0x1122334455667788ULL);
}

TEST(CheckpointComponents, FunctionalCoreRoundTrip)
{
    Program prog = buildWorkload("twolf", {.iterations = 200});
    FunctionalCore core(prog);
    core.run(3000);

    const FunctionalCore::State state = core.capture();
    FunctionalCore back(prog);
    back.adopt(state);
    EXPECT_EQ(back.pc(), core.pc());
    EXPECT_EQ(back.instCount(), core.instCount());
    for (RegIndex r = 0; r < kNumArchRegs; ++r)
        EXPECT_EQ(back.reg(r), core.reg(r)) << "reg " << r;
    expectSameFunc(back.capture(), state);
    EXPECT_EQ(back.lastInst(), nullptr);

    // The restored core must continue executing identically.
    core.run(500);
    back.run(500);
    EXPECT_EQ(back.pc(), core.pc());
    for (RegIndex r = 0; r < kNumArchRegs; ++r)
        EXPECT_EQ(back.reg(r), core.reg(r)) << "reg " << r;
}

TEST(CheckpointComponents, BranchPredictorRoundTrip)
{
    HybridBranchPredictor bp;
    for (int i = 0; i < 500; ++i) {
        const Addr pc = 0x4000 + (i % 37) * 4;
        const auto snap = bp.snapshot();
        bp.predict(pc);
        bp.update(pc, i % 3 != 0, snap);
    }

    const HybridBranchPredictor::State state = bp.capture();
    HybridBranchPredictor back;
    back.adopt(state);
    EXPECT_TRUE(back.capture() == state);
    // Stats counters are part of the warm state (predict() counts).
    EXPECT_EQ(back.lookups.value(), bp.lookups.value());
    EXPECT_EQ(back.condPredicts.value(), bp.condPredicts.value());
}

TEST(CheckpointComponents, BranchPredictorSizeMismatchThrows)
{
    HybridBranchPredictor bp;
    BranchPredictorParams small;
    small.globalPhtEntries = 1024;
    HybridBranchPredictor other(small);
    EXPECT_THROW(other.adopt(bp.capture()), PanicError);
}

TEST(CheckpointComponents, BtbRasHmpLrpRoundTrip)
{
    Btb btb(256, 4);
    ReturnAddressStack ras(16);
    HitMissPredictor hmp(512);
    LeftRightPredictor lrp(512);
    for (int i = 0; i < 300; ++i) {
        const Addr pc = 0x8000 + i * 12;
        btb.update(pc, pc + 40);
        Addr tgt = 0;
        btb.lookup(pc - 12, tgt);
        ras.push(pc + 4);
        if (i % 5 == 0)
            ras.pop();
        hmp.predictHit(pc);
        hmp.update(pc, i % 2 == 0);
        hmp.recordOutcome(i % 2 == 0, i % 2 == 0);
        lrp.predictLeftCritical(pc);
        lrp.update(pc, i % 3 == 0);
    }

    {
        Btb back(256, 4);
        back.adopt(btb.capture());
        EXPECT_TRUE(back.capture() == btb.capture());
        EXPECT_EQ(back.hits.value(), btb.hits.value());
    }
    {
        ReturnAddressStack back(16);
        back.adopt(ras.capture());
        EXPECT_TRUE(back.capture() == ras.capture());
        EXPECT_EQ(back.peek(), ras.peek());
    }
    {
        HitMissPredictor back(512);
        back.adopt(hmp.capture());
        EXPECT_TRUE(back.capture() == hmp.capture());
        EXPECT_EQ(back.actualHits.value(), hmp.actualHits.value());
    }
    {
        LeftRightPredictor back(512);
        back.adopt(lrp.capture());
        EXPECT_TRUE(back.capture() == lrp.capture());
        EXPECT_EQ(back.predicts.value(), lrp.predicts.value());
    }
}

TEST(CheckpointComponents, CacheRoundTripThroughWarmedCore)
{
    // Warm a timing core's hierarchy with a real fast-forward, then
    // round-trip each cache level into a cold core of the same shape.
    Program prog = buildWorkload("swim", {.iterations = 400});
    CoreParams params;
    params.iqKind = IqKind::Ideal;
    params.iq.numEntries = 64;

    FunctionalCore golden(prog);
    OooCore warm(prog, params);
    fastForward(golden, warm, 4000);

    OooCore cold(prog, params);
    const Cache::State l1i = warm.memHierarchy().icache().capture();
    const Cache::State l1d = warm.memHierarchy().dcache().capture();
    const Cache::State l2 = warm.memHierarchy().l2cache().capture();
    ASSERT_TRUE(std::ranges::any_of(
        l1d.lines, [](const Cache::Line &line) { return line.valid; }))
        << "the warm-up must fill the L1D";

    cold.memHierarchy().icache().adopt(l1i);
    cold.memHierarchy().dcache().adopt(l1d);
    cold.memHierarchy().l2cache().adopt(l2);
    EXPECT_TRUE(cold.memHierarchy().icache().capture() == l1i);
    EXPECT_TRUE(cold.memHierarchy().dcache().capture() == l1d);
    EXPECT_TRUE(cold.memHierarchy().l2cache().capture() == l2);
}

TEST(CheckpointComponents, CacheGeometryMismatchThrows)
{
    Program prog = buildWorkload("swim", {.iterations = 200});
    CoreParams params;
    params.iqKind = IqKind::Ideal;
    params.iq.numEntries = 64;
    OooCore a(prog, params);

    CoreParams other = params;
    other.mem.l1d.sizeBytes = 32 * 1024;
    OooCore b(prog, other);

    EXPECT_THROW(
        b.memHierarchy().dcache().adopt(a.memHierarchy().dcache().capture()),
        PanicError);
}

// ---------------------------------------------------------------------
// Whole warm state: capture -> adopt -> capture identity.

// Name kept from when a warm state was a byte blob.
TEST(Checkpoint, BlobRoundTripIsBitIdentical)
{
    SimConfig cfg = testConfig("vortex", IqKind::Segmented);
    Program prog = buildWorkload(cfg.workload, cfg.wl);

    FunctionalCore golden(prog);
    OooCore core(prog, cfg.core);
    const FastForwardStats ff =
        fastForwardUnseeded(golden, core, cfg.fastForward);
    const WarmState warm =
        WarmState::capture(golden, core, ff, prog.checksum());

    OooCore core2(prog, cfg.core, /*load_image=*/false);
    warm.adopt(core2);

    // Re-derive the warm functional state (deterministic replay) and
    // capture again from the restored core: every table must match.
    FunctionalCore golden2(prog);
    golden2.run(ff.instsSkipped);
    const WarmState again =
        WarmState::capture(golden2, core2, ff, prog.checksum());
    EXPECT_EQ(again.ff.instsSkipped, warm.ff.instsSkipped);
    EXPECT_EQ(again.ff.memAccessesWarmed, warm.ff.memAccessesWarmed);
    EXPECT_EQ(again.ff.branchesWarmed, warm.ff.branchesWarmed);
    EXPECT_EQ(again.ff.hitHalt, warm.ff.hitHalt);
    expectSameFunc(again.func, warm.func);
    EXPECT_TRUE(again.l1i == warm.l1i);
    EXPECT_TRUE(again.l1d == warm.l1d);
    EXPECT_TRUE(again.l2 == warm.l2);
    EXPECT_TRUE(again.bp == warm.bp);
    EXPECT_TRUE(again.btb == warm.btb);
    EXPECT_TRUE(again.ras == warm.ras);
    EXPECT_TRUE(again.hmp == warm.hmp);
    EXPECT_TRUE(again.lrp == warm.lrp);

    // The seeded core holds the warm registers, PC and image.
    EXPECT_EQ(core2.commitRegs(), warm.func.regs);
    EXPECT_TRUE(core2.commitMemory().equalContents(warm.func.memory));
}

// ---------------------------------------------------------------------
// The correctness contract: restored == cold, bit for bit, for every
// workload on both IQ designs.

class CheckpointIdentity
    : public ::testing::TestWithParam<std::tuple<std::string, IqKind>>
{
};

TEST_P(CheckpointIdentity, RestoredMatchesColdBitForBit)
{
    const auto &[workload, kind] = GetParam();
    SimConfig cfg = testConfig(workload, kind);
    cfg.ckptCache = std::make_shared<CheckpointCache>();  // memory-only

    Simulator coldSim(cfg);
    RunResult cold = coldSim.run();
    EXPECT_FALSE(cold.ckptRestored);
    ASSERT_TRUE(cold.haltedCleanly);
    ASSERT_TRUE(cold.validated);

    Simulator warmSim(cfg);
    RunResult warm = warmSim.run();
    EXPECT_TRUE(warm.ckptRestored);
    ASSERT_TRUE(warm.haltedCleanly);
    ASSERT_TRUE(warm.validated);

    EXPECT_EQ(cold.cycles, warm.cycles);
    EXPECT_EQ(cold.insts, warm.insts);
    // The whole stats tree, byte for byte — caches, predictors, IQ,
    // LSQ, ROB: any drift in restored warm state shows up here.
    EXPECT_EQ(statsDump(coldSim), statsDump(warmSim));

    EXPECT_EQ(cfg.ckptCache->produced(), 1u);
    EXPECT_EQ(cfg.ckptCache->memoryHits(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, CheckpointIdentity,
    ::testing::Combine(::testing::ValuesIn(workloadNames()),
                       ::testing::Values(IqKind::Segmented,
                                         IqKind::Ideal)),
    [](const auto &info) {
        return std::get<0>(info.param) +
               (std::get<1>(info.param) == IqKind::Segmented
                    ? "_segmented"
                    : "_ideal");
    });

// A warm-up that reaches HALT leaves the core unseeded, so the timed
// run starts from the program image; a restore of that warm-up must do
// the same.
class CheckpointHaltedWarmUp : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    /** twolf with ff at the program length plus GetParam(). */
    static SimConfig
    haltedConfig()
    {
        SimConfig cfg = testConfig("twolf", IqKind::Segmented);
        const Program prog = buildWorkload(cfg.workload, cfg.wl);
        FunctionalCore probe(prog);
        cfg.fastForward = probe.run() + GetParam();  // HALT included
        return cfg;
    }
};

TEST_P(CheckpointHaltedWarmUp, RestoredMatchesColdBitForBit)
{
    SimConfig cfg = haltedConfig();
    cfg.ckptCache = std::make_shared<CheckpointCache>();

    Simulator coldSim(cfg);
    RunResult cold = coldSim.run();
    EXPECT_FALSE(cold.ckptRestored);
    ASSERT_TRUE(cold.haltedCleanly);
    ASSERT_TRUE(cold.validated);

    Simulator warmSim(cfg);
    RunResult warm = warmSim.run();
    EXPECT_TRUE(warm.ckptRestored);
    ASSERT_TRUE(warm.haltedCleanly);
    ASSERT_TRUE(warm.validated);

    EXPECT_EQ(cold.cycles, warm.cycles);
    EXPECT_EQ(cold.insts, warm.insts);
    EXPECT_EQ(statsDump(coldSim), statsDump(warmSim));
}

TEST_P(CheckpointHaltedWarmUp, RestoreLeavesTheCoreUnseeded)
{
    // The same at the warm-state layer, on cores built with the program
    // image: neither fastForward nor WarmState::adopt seeds them.
    const SimConfig cfg = haltedConfig();
    const Program prog = buildWorkload(cfg.workload, cfg.wl);
    FunctionalCore golden(prog);
    OooCore cold(prog, cfg.core);
    const FastForwardStats ff = fastForward(golden, cold, cfg.fastForward);
    ASSERT_TRUE(ff.hitHalt);
    const WarmState warm =
        WarmState::capture(golden, cold, ff, prog.checksum());

    OooCore restored(prog, cfg.core);
    warm.adopt(restored);
    cold.run();
    restored.run();
    ASSERT_TRUE(cold.halted());
    EXPECT_EQ(cold.cycles(), restored.cycles());
    EXPECT_EQ(cold.committedCount(), restored.committedCount());
}

// ff exactly the program length, and well beyond it.
INSTANTIATE_TEST_SUITE_P(AtAndBeyondProgramEnd, CheckpointHaltedWarmUp,
                         ::testing::Values(0u, 100000u));

// ---------------------------------------------------------------------
// Parallel restores.

TEST(CheckpointParallelRestore, SweepRowsMatchANoCacheSweep)
{
    // Two workers over 2 inputs x 3 queue sizes sharing one cache: each
    // input's producer runs first, then its restores, two at a time,
    // copy the same shared WarmState into their cores.
    auto cache = std::make_shared<CheckpointCache>();
    std::vector<SimConfig> cold;
    std::vector<SimConfig> shared;
    for (const char *wl : {"swim", "gcc"}) {
        for (unsigned size : {32u, 64u, 128u}) {
            SimConfig cfg = makeSegmentedConfig(size, 32, true, true, wl);
            cfg.wl.iterations = 200;
            cfg.fastForward = 1500;
            cold.push_back(cfg);
            cfg.ckptCache = cache;
            shared.push_back(cfg);
        }
    }
    const std::vector<RunResult> expected = SweepRunner(2).run(cold);
    const std::vector<RunResult> results = SweepRunner(2).run(shared);

    ASSERT_EQ(results.size(), expected.size());
    std::size_t restored = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_TRUE(results[i].outcome.ok()) << results[i].outcome.message;
        EXPECT_TRUE(results[i].validated) << i;
        EXPECT_FALSE(expected[i].ckptRestored) << i;
        EXPECT_EQ(rowJson(results[i]), rowJson(expected[i])) << i;
        restored += results[i].ckptRestored ? 1 : 0;
    }
    EXPECT_EQ(cache->produced(), 2u);  // each input warmed once
    EXPECT_EQ(cache->memoryHits(), 4u);
    EXPECT_EQ(restored, 4u);
}

// ---------------------------------------------------------------------
// The cache key.

// Name kept from when a restore checked the key itself.
TEST(CheckpointReject, DifferentConfigurationIsRejected)
{
    // A configuration whose warm state differs gets another key, so it
    // is never handed another's state; the IQ under test does not
    // change the warm state and shares the key.
    const SimConfig cfg = testConfig("gcc", IqKind::Ideal);
    const std::uint64_t key = checkpointKeyHash(cfg);

    SimConfig other = cfg;
    other.fastForward += 1;
    EXPECT_NE(checkpointKeyHash(other), key) << "ff";
    other = cfg;
    other.wl.seed += 1;
    EXPECT_NE(checkpointKeyHash(other), key) << "workload seed";
    other = cfg;
    other.core.mem.l1d.sizeBytes /= 2;
    EXPECT_NE(checkpointKeyHash(other), key) << "L1D size";
    other = cfg;
    other.core.bp.globalPhtEntries /= 2;
    EXPECT_NE(checkpointKeyHash(other), key) << "global PHT";

    other = testConfig("gcc", IqKind::Segmented);
    other.core.iq.numEntries = 256;
    EXPECT_EQ(checkpointKeyHash(other), key) << "IQ";

    // Through the cache: the other ff length warms up on its own.
    SimConfig a = cfg;
    a.ckptCache = std::make_shared<CheckpointCache>();
    SimConfig b = a;
    b.fastForward += 1;
    EXPECT_FALSE(runSim(a).ckptRestored);
    EXPECT_FALSE(runSim(b).ckptRestored);
    EXPECT_TRUE(runSim(a).ckptRestored);
    EXPECT_EQ(a.ckptCache->produced(), 2u);
}

// ---------------------------------------------------------------------
// CheckpointCache semantics.

TEST(CheckpointCacheTest, ProducerElectionAndMemoryHits)
{
    CheckpointCache cache;

    CheckpointCache::Entry e = cache.findOrBegin(7);
    EXPECT_EQ(e, nullptr);  // we are the producer
    WarmState warm;
    warm.ff.instsSkipped = 42;
    const CheckpointCache::Entry published =
        cache.publish(7, std::move(warm));

    CheckpointCache::Entry again = cache.findOrBegin(7);
    ASSERT_NE(again, nullptr);
    EXPECT_EQ(again, published);  // shared, not copied
    EXPECT_EQ(again->ff.instsSkipped, 42u);
    EXPECT_EQ(cache.produced(), 1u);
    EXPECT_EQ(cache.memoryHits(), 1u);
}

TEST(CheckpointCacheTest, CancelReleasesTheKey)
{
    CheckpointCache cache;
    EXPECT_EQ(cache.findOrBegin(3), nullptr);
    cache.cancel(3);
    // The key is claimable again after a cancel.
    EXPECT_EQ(cache.findOrBegin(3), nullptr);
    WarmState warm;
    warm.ff.instsSkipped = 2;
    cache.publish(3, std::move(warm));
    EXPECT_EQ(cache.findOrBegin(3)->ff.instsSkipped, 2u);
}
