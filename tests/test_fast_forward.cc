/** @file Tests for fast-forwarding with functional warming. */

#include <gtest/gtest.h>

#include "sim/fast_forward.hh"
#include "sim/simulator.hh"

using namespace sciq;

TEST(FastForward, SkipsInstructionsAndSeedsState)
{
    Program prog = buildWorkload("twolf", {.iterations = 400});
    FunctionalCore golden(prog);
    CoreParams params;
    params.iqKind = IqKind::Ideal;
    params.iq.numEntries = 64;
    OooCore core(prog, params);

    FastForwardStats ff = fastForward(golden, core, 2000);
    EXPECT_EQ(ff.instsSkipped, 2000u);
    EXPECT_FALSE(ff.hitHalt);
    EXPECT_GT(ff.memAccessesWarmed, 0u);
    EXPECT_GT(ff.branchesWarmed, 0u);

    core.run(~0ULL, 2'000'000);
    ASSERT_TRUE(core.halted());

    // Final committed state equals a full functional run.
    FunctionalCore full(prog);
    full.run();
    EXPECT_EQ(ff.instsSkipped + core.committedCount(), full.instCount());
    for (RegIndex r = 1; r < kNumArchRegs; ++r)
        EXPECT_EQ(core.commitRegs()[r], full.reg(r)) << "reg " << r;
    EXPECT_TRUE(core.commitMemory().equalContents(full.memory()));
}

TEST(FastForward, WarmsTheDataCache)
{
    Program prog = buildWorkload("twolf", {.iterations = 600});

    auto cold_misses = [&](std::uint64_t ff_insts) {
        FunctionalCore golden(prog);
        CoreParams params;
        params.iqKind = IqKind::Ideal;
        params.iq.numEntries = 64;
        OooCore core(prog, params);
        if (ff_insts)
            fastForward(golden, core, ff_insts);
        core.run(~0ULL, 2'000'000);
        EXPECT_TRUE(core.halted());
        return core.memHierarchy().dcache().misses.value();
    };

    // Warming must eliminate most of the small-footprint cold misses.
    EXPECT_LT(cold_misses(4000), 0.5 * cold_misses(0));
}

TEST(FastForward, StopsAtHalt)
{
    Program prog = buildWorkload("gcc", {.iterations = 50});
    FunctionalCore golden(prog);
    CoreParams params;
    params.iq.numEntries = 64;
    params.iqKind = IqKind::Ideal;
    OooCore core(prog, params);
    FastForwardStats ff = fastForward(golden, core, 10'000'000);
    EXPECT_TRUE(ff.hitHalt);
    EXPECT_LT(ff.instsSkipped, 10'000'000u);
}

TEST(FastForward, SimulatorIntegrationValidates)
{
    SimConfig cfg = makeSegmentedConfig(128, 64, true, true, "vortex");
    cfg.wl.iterations = 500;
    cfg.fastForward = 1500;
    cfg.validate = true;
    RunResult r = runSim(cfg);
    EXPECT_TRUE(r.haltedCleanly);
    EXPECT_TRUE(r.validated);
}

TEST(FastForward, ConfigKey)
{
    SimConfig cfg;
    ConfigMap m;
    m.set("ff", "12345");
    cfg.apply(m);
    EXPECT_EQ(cfg.fastForward, 12345u);
}

TEST(FastForward, ConfigKeyCountSuffix)
{
    SimConfig cfg;
    ConfigMap m;
    m.set("ff", "300m");
    m.set("iters", "2k");
    m.set("max_cycles", "1m");
    cfg.apply(m);
    EXPECT_EQ(cfg.fastForward, 300'000'000u);
    EXPECT_EQ(cfg.wl.iterations, 2'000u);
    EXPECT_EQ(cfg.maxCycles, 1'000'000u);
}

TEST(FastForward, SeedStateAfterStartPanics)
{
    Program prog = buildWorkload("gcc", {.iterations = 50});
    CoreParams params;
    params.iq.numEntries = 64;
    params.iqKind = IqKind::Ideal;
    OooCore core(prog, params);
    core.tick();
    std::array<std::uint64_t, kNumArchRegs> regs{};
    SparseMemory mem;
    EXPECT_THROW(core.seedState(regs, mem, 0x1000), PanicError);
}
