/**
 * @file
 * Warm-state checkpoint/restore tests (DESIGN.md §12).
 *
 * Four layers of coverage:
 *  - the serialization primitives, the trailer hash's known answers
 *    and its sensitivity to every single-bit flip;
 *  - per-component save -> restore -> save round-trips must reproduce
 *    the first blob bit for bit;
 *  - a restored Simulator run must produce byte-identical stats trees
 *    to a cold fast-forwarded run, for every workload on both the
 *    segmented and the ideal IQ (the module's correctness contract);
 *  - corrupted, truncated, version-bumped, mislabelled and mismatched
 *    blobs are rejected with specific CheckpointError messages.
 *
 * Plus the codec's work gate: a restore's bounds checks are pinned
 * per kernel (one per scalar field and one per table).
 *
 * Plus CheckpointCache semantics: producer election, memory hits and
 * cancel.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <utility>
#include <vector>

#include "branch/branch_predictor.hh"
#include "branch/btb.hh"
#include "branch/hit_miss_predictor.hh"
#include "branch/left_right_predictor.hh"
#include "branch/ras.hh"
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

/** Serialize `obj` through its save() into a fresh buffer. */
template <typename T>
std::string
blobOf(const T &obj)
{
    serial::Writer w;
    obj.save(w);
    return w.take();
}

/** Restore `obj` from `blob` and check the whole blob was consumed. */
template <typename T>
void
restoreFrom(T &obj, const std::string &blob)
{
    serial::Reader r(blob);
    obj.restore(r);
    ASSERT_EQ(r.remaining(), 0u);
}

/**
 * `blob` relabelled as the version-1 format: version field 1 and the
 * FNV-1a trailer that format used.
 */
std::string
asVersion1(std::string blob)
{
    blob[8] = 1;
    blob[9] = blob[10] = blob[11] = 0;
    const std::size_t payload = blob.size() - 8;
    serial::Writer t;
    t.u64(serial::fnv1a(blob.data(), payload));
    return blob.replace(payload, 8, t.buffer());
}

/**
 * The one-lane hash that version 2 used for its trailer and program
 * checksum, kept here only to build a genuine version-2 file.
 */
std::uint64_t
hashBytesVersion2(const void *data, std::size_t len)
{
    constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
    const auto *p = static_cast<const std::uint8_t *>(data);
    auto step = [](std::uint64_t h, std::uint64_t w) {
        h = (h ^ w) * kMul;
        return h ^ (h >> 32);
    };
    auto load = [&](std::size_t at, std::size_t n) {
        std::uint64_t w = 0;
        for (std::size_t i = 0; i < n; ++i)
            w |= static_cast<std::uint64_t>(p[at + i]) << (8 * i);
        return w;
    };
    std::uint64_t h = 0x243f6a8885a308d3ULL ^ (len * kMul);
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8)
        h = step(h, load(i, 8));
    if (i < len)
        h = step(h, load(i, len - i));
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
}

/** `blob` relabelled as version 2, with that format's trailer. */
std::string
asVersion2(std::string blob)
{
    blob[8] = 2;
    blob[9] = blob[10] = blob[11] = 0;
    const std::size_t payload = blob.size() - 8;
    serial::Writer t;
    t.u64(hashBytesVersion2(blob.data(), payload));
    return blob.replace(payload, 8, t.buffer());
}

/**
 * The first `len` bytes of `blob`'s payload with a fresh trailer, so
 * the frame checks pass and the cut is found by the section decoder.
 */
std::string
cutAndReframe(const std::string &blob, std::size_t len)
{
    std::string cut = blob.substr(0, len);
    serial::Writer t;
    t.u64(serial::hashBytes(cut.data(), cut.size()));
    return cut + t.buffer();
}

} // namespace

// ---------------------------------------------------------------------
// Serialization primitives.

TEST(Serialize, ScalarsRoundTrip)
{
    serial::Writer w;
    w.u8(0xab);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefULL);
    w.f64(-1.5e-300);
    w.str("hello");
    w.tag("TAG1");

    serial::Reader r(w.buffer());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.f64(), -1.5e-300);
    EXPECT_EQ(r.str(), "hello");
    EXPECT_NO_THROW(r.expectTag("TAG1"));
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(Serialize, TruncationThrows)
{
    serial::Writer w;
    w.u64(42);
    std::string cut = w.take().substr(0, 3);
    serial::Reader r(cut);
    EXPECT_THROW(r.u64(), serial::Error);
}

TEST(Serialize, WrongTagThrows)
{
    serial::Writer w;
    w.tag("AAAA");
    serial::Reader r(w.buffer());
    try {
        r.expectTag("BBBB");
        FAIL() << "expectTag should have thrown";
    } catch (const serial::Error &e) {
        EXPECT_NE(std::string(e.what()).find("BBBB"),
                  std::string::npos);
    }
}

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
// Per-component round-trips: save -> restore -> save reproduces the
// blob bit for bit.

TEST(CheckpointComponents, SparseMemoryRoundTrip)
{
    SparseMemory mem;
    mem.write(0x1000, 8, 0x1122334455667788ULL);
    mem.write(0x20'0000, 8, 42);
    mem.write(0x3f'ffff, 1, 0x7f);

    const std::string blob = blobOf(mem);
    SparseMemory back;
    restoreFrom(back, blob);
    EXPECT_EQ(back.read(0x1000, 8), 0x1122334455667788ULL);
    EXPECT_EQ(back.read(0x3f'ffff, 1), 0x7fu);
    EXPECT_EQ(blobOf(back), blob);
    EXPECT_TRUE(back.equalContents(mem));
}

TEST(CheckpointComponents, FunctionalCoreRoundTrip)
{
    Program prog = buildWorkload("twolf", {.iterations = 200});
    FunctionalCore core(prog);
    core.run(3000);

    const std::string blob = blobOf(core);
    FunctionalCore back(prog);
    restoreFrom(back, blob);
    EXPECT_EQ(back.pc(), core.pc());
    EXPECT_EQ(back.instCount(), core.instCount());
    for (RegIndex r = 0; r < kNumArchRegs; ++r)
        EXPECT_EQ(back.reg(r), core.reg(r)) << "reg " << r;
    EXPECT_EQ(blobOf(back), blob);

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

    const std::string blob = blobOf(bp);
    HybridBranchPredictor back;
    restoreFrom(back, blob);
    EXPECT_EQ(blobOf(back), blob);
    // Stats counters are part of the warm state (predict() counts).
    EXPECT_EQ(back.lookups.value(), bp.lookups.value());
    EXPECT_EQ(back.condPredicts.value(), bp.condPredicts.value());
}

TEST(CheckpointComponents, BranchPredictorSizeMismatchThrows)
{
    HybridBranchPredictor bp;
    const std::string blob = blobOf(bp);
    BranchPredictorParams small;
    small.globalPhtEntries = 1024;
    HybridBranchPredictor other(small);
    serial::Reader r(blob);
    EXPECT_THROW(other.restore(r), serial::Error);
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
        const std::string blob = blobOf(btb);
        Btb back(256, 4);
        restoreFrom(back, blob);
        EXPECT_EQ(blobOf(back), blob);
    }
    {
        const std::string blob = blobOf(ras);
        ReturnAddressStack back(16);
        serial::Reader r(blob);
        back.restore(r);
        EXPECT_EQ(r.remaining(), 0u);
        EXPECT_EQ(blobOf(back), blob);
    }
    {
        const std::string blob = blobOf(hmp);
        HitMissPredictor back(512);
        restoreFrom(back, blob);
        EXPECT_EQ(blobOf(back), blob);
    }
    {
        const std::string blob = blobOf(lrp);
        LeftRightPredictor back(512);
        restoreFrom(back, blob);
        EXPECT_EQ(blobOf(back), blob);
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
    const std::string l1i = blobOf(warm.memHierarchy().icache());
    const std::string l1d = blobOf(warm.memHierarchy().dcache());
    const std::string l2 = blobOf(warm.memHierarchy().l2cache());

    restoreFrom(cold.memHierarchy().icache(), l1i);
    restoreFrom(cold.memHierarchy().dcache(), l1d);
    restoreFrom(cold.memHierarchy().l2cache(), l2);
    EXPECT_EQ(blobOf(cold.memHierarchy().icache()), l1i);
    EXPECT_EQ(blobOf(cold.memHierarchy().dcache()), l1d);
    EXPECT_EQ(blobOf(cold.memHierarchy().l2cache()), l2);
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

    const std::string blob = blobOf(a.memHierarchy().dcache());
    serial::Reader r(blob);
    EXPECT_THROW(b.memHierarchy().dcache().restore(r), serial::Error);
}

// ---------------------------------------------------------------------
// Whole-checkpoint blob: save -> restore -> save identity.

TEST(Checkpoint, BlobRoundTripIsBitIdentical)
{
    SimConfig cfg = testConfig("vortex", IqKind::Segmented);
    Program prog = buildWorkload(cfg.workload, cfg.wl);

    FunctionalCore golden(prog);
    OooCore core(prog, cfg.core);
    FastForwardStats ff = fastForward(golden, core, cfg.fastForward);
    const std::string blob = saveCheckpoint(cfg, golden, core, ff);

    OooCore core2(prog, cfg.core);
    FastForwardStats ff2 = restoreCheckpoint(blob, cfg, prog, core2);
    EXPECT_EQ(ff2.instsSkipped, ff.instsSkipped);
    EXPECT_EQ(ff2.hitHalt, ff.hitHalt);

    // Re-derive the warm functional state (deterministic replay) and
    // re-save from the restored core: every byte must match.
    FunctionalCore golden2(prog);
    golden2.run(ff.instsSkipped);
    EXPECT_EQ(saveCheckpoint(cfg, golden2, core2, ff2), blob);
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
    // The same at the checkpoint layer, on cores built with the program
    // image: neither fastForward nor restoreCheckpoint seeds them.
    const SimConfig cfg = haltedConfig();
    const Program prog = buildWorkload(cfg.workload, cfg.wl);
    FunctionalCore golden(prog);
    OooCore cold(prog, cfg.core);
    const FastForwardStats ff = fastForward(golden, cold, cfg.fastForward);
    ASSERT_TRUE(ff.hitHalt);
    const std::string blob = saveCheckpoint(cfg, golden, cold, ff);

    OooCore restored(prog, cfg.core);
    EXPECT_TRUE(restoreCheckpoint(blob, cfg, prog, restored).hitHalt);
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
// Rejection paths.

class CheckpointReject : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cfg = testConfig("gcc", IqKind::Ideal);
        prog = std::make_unique<Program>(
            buildWorkload(cfg.workload, cfg.wl));
        FunctionalCore golden(*prog);
        OooCore core(*prog, cfg.core);
        ff = fastForward(golden, core, cfg.fastForward);
        blob = saveCheckpoint(cfg, golden, core, ff);
    }

    /** Expect restoreCheckpoint(mutated) to fail mentioning `what`. */
    void
    expectReject(const std::string &mutated, const std::string &what)
    {
        OooCore core(*prog, cfg.core);
        try {
            restoreCheckpoint(mutated, cfg, *prog, core);
            FAIL() << "expected CheckpointError containing '" << what
                   << "'";
        } catch (const CheckpointError &e) {
            EXPECT_NE(std::string(e.what()).find(what),
                      std::string::npos)
                << "actual message: " << e.what();
        }
    }

    SimConfig cfg;
    std::unique_ptr<Program> prog;
    FastForwardStats ff;
    std::string blob;
};

TEST_F(CheckpointReject, CorruptedByteFailsChecksum)
{
    std::string bad = blob;
    bad[bad.size() / 2] ^= 0x01;
    expectReject(bad, "checksum");
}

TEST_F(CheckpointReject, TruncationIsRejected)
{
    // Below the 28-byte minimum header the size check fires; from there
    // on the last 8 bytes are read as a trailer and cannot match.
    const std::size_t lens[] = {0,  1,  4,  8,  12, 27, 28, 29, 64,
                                blob.size() / 3,  blob.size() / 2,
                                blob.size() - 9,  blob.size() - 8,
                                blob.size() - 1};
    for (std::size_t len : lens) {
        SCOPED_TRACE("length " + std::to_string(len));
        expectReject(blob.substr(0, len),
                     len < 28 ? "truncated" : "checksum");
    }
}

TEST_F(CheckpointReject, CutInsideEachTableIsMalformed)
{
    // A blob cut inside a table and given a valid trailer passes the
    // frame, key and program checks; the table's one bounds check must
    // then reject it.
    auto after = [&](const char *tag) {
        const std::size_t at = blob.find(tag);
        EXPECT_NE(at, std::string::npos) << tag;
        return at + 4;
    };
    const BranchPredictorParams &bp = cfg.core.bp;
    // FUNC: registers, pc, halted flag, instruction count, page count,
    // then the first page's number and bytes.
    const std::size_t firstPage = after("FUNC") + 8 * kNumArchRegs + 8 +
                                  1 + 8 + 8;
    // Cache: u64 sets, u32 assoc, u32 line size, then the lines.
    const std::size_t l1dLines = after("L1D_") + 16;
    // BPRD: u32 global history, then count + counters, count +
    // histories, count + local counters, count + choice counters.
    const std::size_t globalPht = after("BPRD") + 4 + 8;
    const std::size_t histories = globalPht + bp.globalPhtEntries + 8;
    const std::size_t localPht = histories + 4 * bp.localHistoryRegs + 8;
    const std::pair<const char *, std::size_t> cuts[] = {
        {"page bytes", firstPage + 8 + 100},
        {"cache lines", l1dLines + 17 * 3 + 5},
        {"global PHT counters", globalPht + 10},
        {"local histories", histories + 6},
        {"local PHT counters", localPht + 3},
        {"BTB entries", after("BTB_") + 8 + 25 + 7},
        {"RAS slots", after("RAS_") + 8 + 12},
        {"HMP counters", after("HMP_") + 8 + 1},
    };
    serial::Reader pages(std::string_view(blob).substr(firstPage - 8, 8));
    ASSERT_GT(pages.u64(), 0u) << "the warm-up must leave a page to cut";
    for (const auto &[where, len] : cuts) {
        SCOPED_TRACE(where);
        ASSERT_LT(len, blob.size() - 8);
        expectReject(cutAndReframe(blob, len), "malformed");
        expectReject(cutAndReframe(blob, len), "truncated stream");
    }
}

TEST_F(CheckpointReject, SingleBitFlipInEverySectionFailsChecksum)
{
    // Offset of each section's first payload byte, found by walking
    // the tags in their fixed order.
    auto sectionStart = [&](const std::string &tag, std::size_t from) {
        const std::size_t at = blob.find(tag, from);
        EXPECT_NE(at, std::string::npos) << tag;
        return at + 4;
    };
    const std::size_t ffst = sectionStart("FFST", 0);
    const std::size_t func = sectionStart("FUNC", ffst);
    const std::size_t l1i = sectionStart("L1I_", func);
    const std::size_t l1d = sectionStart("L1D_", l1i);
    const std::size_t l2 = sectionStart("L2__", l1d);
    const std::size_t bprd = sectionStart("BPRD", l2);
    const std::size_t end = sectionStart("END_", bprd);
    ASSERT_EQ(end, blob.size() - 8);

    const std::pair<const char *, std::size_t> flips[] = {
        {"FFST", ffst + 3},
        {"FUNC registers", func + 8},
        // Memory is the last thing FUNC holds: this is page bytes.
        {"FUNC page bytes", l1i - 4 - 100},
        {"L1I_", l1i + 20},
        {"L1D_", (l1d + l2) / 2},
        {"L2__", (l2 + bprd) / 2},
        {"BPRD", bprd + 40},
        {"trailer", blob.size() - 3},
    };
    for (const auto &[where, off] : flips) {
        for (unsigned bit : {0u, 7u}) {
            SCOPED_TRACE(std::string(where) + " bit " + std::to_string(bit));
            std::string bad = blob;
            bad[off] = static_cast<char>(bad[off] ^ (1u << bit));
            expectReject(bad, "checksum");
        }
    }
}

TEST_F(CheckpointReject, BadMagicIsRejected)
{
    std::string bad = blob;
    bad[0] = 'X';
    expectReject(bad, "magic");
}

TEST_F(CheckpointReject, FutureVersionIsRejected)
{
    std::string bad = blob;
    bad[8] = static_cast<char>(kCheckpointVersion + 1);
    expectReject(bad, "version");
}

TEST_F(CheckpointReject, Version1IsRejected)
{
    expectReject(asVersion1(blob), "version");
}

TEST_F(CheckpointReject, Version2IsRejected)
{
    expectReject(asVersion2(blob), "unsupported checkpoint version 2");
}

TEST_F(CheckpointReject, DifferentConfigurationIsRejected)
{
    SimConfig other = cfg;
    other.fastForward += 1;  // key hash input
    OooCore core(*prog, other.core);
    EXPECT_THROW(restoreCheckpoint(blob, other, *prog, core),
                 CheckpointError);

    other = cfg;
    other.wl.seed += 1;  // workload fingerprint input
    Program otherProg = buildWorkload(other.workload, other.wl);
    OooCore core2(otherProg, other.core);
    EXPECT_THROW(restoreCheckpoint(blob, other, otherProg, core2),
                 CheckpointError);
}

// ---------------------------------------------------------------------
// CheckpointCache semantics.

TEST(CheckpointCacheTest, ProducerElectionAndMemoryHits)
{
    CheckpointCache cache;

    CheckpointCache::Blob b = cache.findOrBegin(7);
    EXPECT_EQ(b, nullptr);  // we are the producer
    cache.publish(7, "payload");

    CheckpointCache::Blob again = cache.findOrBegin(7);
    ASSERT_NE(again, nullptr);
    EXPECT_EQ(*again, "payload");
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
    cache.publish(3, "second try");
    EXPECT_EQ(*cache.findOrBegin(3), "second try");
}

// ---------------------------------------------------------------------
// The codec's work gate: serial::Reader counts its bounds checks, and
// a restore makes one per scalar field and one per table, whatever the
// table sizes or the number of memory pages.  Exact on any host.

class CheckpointCodecWork : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CheckpointCodecWork, RestoreChecksEachTableOnce)
{
    // Frame: version and trailer (2).  Header: magic + version span,
    // key, name length + bytes, iterations, seed, scale, ff length,
    // program checksum (9).  FFST: tag + 4 fields (5).  FUNC: tag,
    // registers, pc, halted, count, pages (7).  Each cache: tag, 3
    // geometry fields, lines, LRU clock, 6 counters (3 x 12).  BPRD:
    // tag, history, 4 x (count + table), 4 counters (14).  BTB_: tag,
    // count, entries, clock, 2 counters (6).  RAS_: tag, count, slots,
    // top (4).  HMP_: tag, count + table, 4 counters (7).  LRP_: tag,
    // count + table, 2 counters (5).  END_ (1).
    constexpr std::uint64_t kChecksPerRestore =
        2 + 9 + 5 + 7 + 3 * 12 + 14 + 6 + 4 + 7 + 5 + 1;

    SimConfig cfg = testConfig(GetParam(), IqKind::Segmented);
    // A long warm-up, so the image has many pages to restore.
    cfg.wl.iterations = 2000;
    const Program prog = buildWorkload(cfg.workload, cfg.wl);
    cfg.fastForward = FunctionalCore(prog).run() / 2;
    FunctionalCore golden(prog);
    OooCore cold(prog, cfg.core);
    const FastForwardStats ff = fastForward(golden, cold, cfg.fastForward);
    const std::string blob = saveCheckpoint(cfg, golden, cold, ff);

    OooCore core(prog, cfg.core, /*load_image=*/false);
    const std::uint64_t before = serial::readerBoundsChecks;
    restoreCheckpoint(blob, cfg, prog, core);
    const std::uint64_t checks = serial::readerBoundsChecks - before;
    RecordProperty("bounds_checks", std::to_string(checks));
    RecordProperty("pages", std::to_string(golden.memory().numPages()));
    RecordProperty("blob_bytes", std::to_string(blob.size()));
    EXPECT_EQ(checks, kChecksPerRestore)
        << golden.memory().numPages() << " pages, " << blob.size()
        << " bytes";
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, CheckpointCodecWork,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });
