/** @file Tests for the synthetic SPEC-stand-in workload kernels. */

#include <gtest/gtest.h>

#include "common/errors.hh"
#include "isa/functional_core.hh"
#include "sim/simulator.hh"
#include "workload/workloads.hh"

using namespace sciq;

namespace {

WorkloadParams
tiny()
{
    WorkloadParams p;
    p.iterations = 100;
    return p;
}

} // namespace

class WorkloadByName : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadByName, BuildsAndHaltsFunctionally)
{
    Program prog = buildWorkload(GetParam(), tiny());
    EXPECT_EQ(prog.name, GetParam());
    EXPECT_GT(prog.size(), 10u);
    FunctionalCore core(prog);
    core.run(2'000'000);
    EXPECT_TRUE(core.halted()) << GetParam();
    EXPECT_GT(core.instCount(), 100u);
}

TEST_P(WorkloadByName, ChecksumIsDeterministic)
{
    Program p1 = buildWorkload(GetParam(), tiny());
    Program p2 = buildWorkload(GetParam(), tiny());
    FunctionalCore a(p1), b(p2);
    a.run(2'000'000);
    b.run(2'000'000);
    EXPECT_EQ(a.reg(intReg(10)), b.reg(intReg(10)));
}

TEST_P(WorkloadByName, SeedChangesData)
{
    WorkloadParams p = tiny();
    Program p1 = buildWorkload(GetParam(), p);
    p.seed = 999;
    Program p2 = buildWorkload(GetParam(), p);
    FunctionalCore a(p1), b(p2);
    a.run(2'000'000);
    b.run(2'000'000);
    // gcc's checksum depends only on the PRNG seed register path; all
    // kernels must at least still halt; data-driven ones must differ.
    EXPECT_TRUE(a.halted() && b.halted());
}

TEST_P(WorkloadByName, IterationBudgetScalesWork)
{
    WorkloadParams small = tiny();
    WorkloadParams big = tiny();
    big.iterations = 200;
    const Program p_small = buildWorkload(GetParam(), small);
    const Program p_big = buildWorkload(GetParam(), big);
    FunctionalCore a(p_small);
    FunctionalCore b(p_big);
    a.run(4'000'000);
    b.run(4'000'000);
    EXPECT_GT(b.instCount(), a.instCount());
}

INSTANTIATE_TEST_SUITE_P(AllKernels, WorkloadByName,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

TEST(WorkloadRegistry, NamesAndLookup)
{
    EXPECT_EQ(workloadNames().size(), 8u);
    EXPECT_EQ(fpWorkloadNames().size(), 5u);
    EXPECT_THROW(buildWorkload("nonesuch"), WorkloadError);
}

// --- Characterisation: each kernel must show the property that drives
// --- its benchmark's behaviour in the paper (DESIGN.md section 4).

namespace {

RunResult
quickRun(const std::string &name, std::uint64_t iters = 600)
{
    SimConfig cfg = makeIdealConfig(128, name);
    cfg.wl.iterations = iters;
    cfg.validate = false;
    cfg.maxCycles = 2'000'000;
    return runSim(cfg);
}

} // namespace

TEST(WorkloadCharacter, SwimIsMemoryBoundWithDelayedHits)
{
    RunResult r = quickRun("swim");
    ASSERT_TRUE(r.haltedCleanly);
    EXPECT_GT(r.l1dMissRate, 0.5);        // paper: ~90% of loads miss
    EXPECT_GT(r.l1dDelayedHitFrac, 0.4);  // mostly delayed hits
    EXPECT_LT(r.branchMispredictRate, 0.05);
}

TEST(WorkloadCharacter, GccIsBranchBound)
{
    RunResult r = quickRun("gcc", 2000);
    ASSERT_TRUE(r.haltedCleanly);
    EXPECT_GT(r.branchMispredictRate, 0.05);
    EXPECT_LT(r.l1dMissRate, 0.2);  // tiny working set
}

TEST(WorkloadCharacter, VortexHasPredictableBranchesSmallFootprint)
{
    RunResult r = quickRun("vortex", 2000);
    ASSERT_TRUE(r.haltedCleanly);
    EXPECT_LT(r.branchMispredictRate, 0.02);
    EXPECT_LT(r.l1dMissRate, 0.30);
}

TEST(WorkloadCharacter, EquakeGathersMissTheCache)
{
    RunResult r = quickRun("equake");
    ASSERT_TRUE(r.haltedCleanly);
    EXPECT_GT(r.l1dMissRate, 0.25);
}

TEST(WorkloadCharacter, FpKernelsGainFromLargeWindows)
{
    // The paper's headline: FP codes speed up dramatically with IQ
    // size because independent misses overlap.  Check swim at two
    // sizes on the ideal queue.
    SimConfig small = makeIdealConfig(32, "swim");
    small.wl.iterations = 1200;
    small.validate = false;
    SimConfig large = makeIdealConfig(256, "swim");
    large.wl.iterations = 1200;
    large.validate = false;
    RunResult rs = runSim(small);
    RunResult rl = runSim(large);
    ASSERT_TRUE(rs.haltedCleanly && rl.haltedCleanly);
    EXPECT_GT(rl.ipc, rs.ipc * 1.8);  // paper: up to ~5x
}

TEST(WorkloadCharacter, GccGainsLittleFromLargeWindows)
{
    SimConfig small = makeIdealConfig(32, "gcc");
    small.wl.iterations = 2000;
    small.validate = false;
    SimConfig large = makeIdealConfig(256, "gcc");
    large.wl.iterations = 2000;
    large.validate = false;
    RunResult rs = runSim(small);
    RunResult rl = runSim(large);
    EXPECT_LT(rl.ipc, rs.ipc * 1.35);  // essentially flat in the paper
}

TEST(WorkloadCharacter, MgridLoadsMostlyHitAfterRework)
{
    // The windowed three-sweep structure makes most loads L1 hits, so
    // the hit/miss predictor can suppress chains (paper 6.1: mgrid
    // benefits most from the HMP).
    RunResult r = quickRun("mgrid", 1500);
    ASSERT_TRUE(r.haltedCleanly);
    EXPECT_LT(r.l1dMissRate, 0.5);
    EXPECT_GT(r.l1dMissRate, 0.02);  // the first sweep still misses
}

TEST(WorkloadCharacter, AmmpIsLatencyBoundNotMissBound)
{
    // Past the cold phase the coordinate set is cache resident; the
    // long run amortises the initial misses away.
    RunResult r = quickRun("ammp", 6000);
    ASSERT_TRUE(r.haltedCleanly);
    EXPECT_LT(r.l1dMissRate, 0.3);
    EXPECT_LT(r.branchMispredictRate, 0.05);
}

TEST(WorkloadCharacter, HmpSavesChainsOnMgridButNotSwim)
{
    auto chains_with = [](const std::string &wl, bool hmp) {
        SimConfig cfg = makeSegmentedConfig(512, -1, hmp, false, wl);
        cfg.wl.iterations = 1500;
        cfg.validate = false;
        return runSim(cfg).avgChains;
    };
    // Paper Table 2: HMP cuts mgrid/ammp chains substantially; swim is
    // immune because ~90% of its loads genuinely miss.
    EXPECT_LT(chains_with("mgrid", true),
              0.92 * chains_with("mgrid", false));
    EXPECT_GT(chains_with("swim", true),
              0.95 * chains_with("swim", false));
}
