/**
 * @file
 * The cornerstone property: for every workload on every IQ design, the
 * pipeline's committed architectural state must match the functional
 * golden model bit for bit.  This exercises renaming, squash recovery,
 * the LSQ, chain bookkeeping, deadlock recovery and commit ordering all
 * at once.  The negative cases show the comparison can fail.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <utility>

#include "sim/simulator.hh"
#include "sim/sweep.hh"

using namespace sciq;

namespace {

using Case = std::tuple<std::string, std::string>;

SimConfig
configFor(const std::string &iq, const std::string &workload)
{
    SimConfig cfg;
    if (iq == "ideal") {
        cfg = makeIdealConfig(128, workload);
    } else if (iq == "segmented") {
        cfg = makeSegmentedConfig(128, 64, true, true, workload);
    } else if (iq == "segmented-base") {
        cfg = makeSegmentedConfig(128, -1, false, false, workload);
    } else if (iq == "prescheduled") {
        cfg = makePrescheduledConfig(128, workload);
    } else {
        cfg = makeFifoConfig(16, 8, workload);
    }
    cfg.wl.iterations = 150;
    cfg.maxCycles = 3'000'000;
    cfg.validate = true;
    return cfg;
}

} // namespace

class StateValidation : public ::testing::TestWithParam<Case> {};

TEST_P(StateValidation, CommittedStateMatchesGoldenModel)
{
    auto [iq, workload] = GetParam();
    RunResult r = runSim(configFor(iq, workload));
    EXPECT_TRUE(r.haltedCleanly) << iq << "/" << workload;
    EXPECT_TRUE(r.validated) << iq << "/" << workload;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StateValidation,
    ::testing::Combine(::testing::Values("ideal", "segmented",
                                         "segmented-base", "prescheduled",
                                         "fifo"),
                       ::testing::ValuesIn(workloadNames())),
    [](const auto &info) {
        std::string name = std::get<0>(info.param) + "_" +
                           std::get<1>(info.param);
        for (auto &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

TEST(StateValidationLarge, SegmentedFiveTwelveEntrySwim)
{
    SimConfig cfg = makeSegmentedConfig(512, 128, true, true, "swim");
    cfg.wl.iterations = 400;
    cfg.maxCycles = 3'000'000;
    RunResult r = runSim(cfg);
    EXPECT_TRUE(r.haltedCleanly);
    EXPECT_TRUE(r.validated);
}

TEST(StateValidationLarge, SegmentedTinyChainBudgetStillCorrect)
{
    // Starving the queue of chain wires must degrade performance, not
    // correctness.
    SimConfig cfg = makeSegmentedConfig(256, 8, false, false, "equake");
    cfg.wl.iterations = 200;
    cfg.maxCycles = 3'000'000;
    RunResult r = runSim(cfg);
    EXPECT_TRUE(r.haltedCleanly);
    EXPECT_TRUE(r.validated);
}

TEST(StateValidationLarge, SegmentedTinySegmentsStress)
{
    // Many small segments maximise promotion traffic and wire latency.
    SimConfig cfg = makeSegmentedConfig(128, 64, true, true, "ammp");
    cfg.core.iq.segmentSize = 8;  // 16 segments
    cfg.wl.iterations = 150;
    cfg.maxCycles = 3'000'000;
    RunResult r = runSim(cfg);
    EXPECT_TRUE(r.haltedCleanly);
    EXPECT_TRUE(r.validated);
}

TEST(StateValidationLarge, NoBypassNoPushdownStillCorrect)
{
    SimConfig cfg = makeSegmentedConfig(128, -1, false, false, "twolf");
    cfg.core.iq.enableBypass = false;
    cfg.core.iq.enablePushdown = false;
    cfg.wl.iterations = 200;
    cfg.maxCycles = 3'000'000;
    RunResult r = runSim(cfg);
    EXPECT_TRUE(r.haltedCleanly);
    EXPECT_TRUE(r.validated);
}

// ---------------------------------------------------------------------
// Validation can fail: a job whose committed state differs from its
// golden end state must report validated == false, whether the golden
// is the job's own or one shared among a sweep's jobs.

namespace {

/** An address no workload reads or writes. */
constexpr Addr kStrayAddr = 0x7ead'0000'0000ULL;

SimConfig
negativeConfig()
{
    SimConfig cfg = makeSegmentedConfig(64, 32, true, true, "swim");
    cfg.wl.iterations = 100;
    cfg.validate = true;
    return cfg;
}

/**
 * Run `sim` to completion after seeding its core with one stray byte
 * the program never touches, so the committed memory ends up differing
 * from any functional-model run of the program.
 */
RunResult
runWithStrayByte(Simulator &sim)
{
    bool restored = false;
    const std::uint64_t skipped = sim.prepare(restored);
    OooCore &core = sim.core();
    SparseMemory image = core.commitMemory();
    image.write(kStrayAddr, 1, 0x5a);
    core.seedState(core.commitRegs(), std::move(image),
                   sim.program().entry());
    core.run(~0ULL, sim.simConfig().maxCycles);
    return sim.collect(0.0, skipped, restored);
}

} // namespace

TEST(ValidationFails, PrivateGoldenSeesAStrayCommittedByte)
{
    Simulator clean(negativeConfig());
    ASSERT_TRUE(clean.run().validated);

    Simulator stray(negativeConfig());
    const RunResult r = runWithStrayByte(stray);
    EXPECT_TRUE(r.haltedCleanly);
    EXPECT_FALSE(r.validated);
}

TEST(ValidationFails, SweepSharedGoldenSeesAStrayCommittedByte)
{
    // Two jobs of one input draw the same golden from the sweep's
    // shared state: the clean one passes against it, the stray one
    // fails against it.
    SweepShared shared;
    Simulator clean(negativeConfig(), &shared);
    ASSERT_TRUE(clean.run().validated);

    Simulator stray(negativeConfig(), &shared);
    const RunResult r = runWithStrayByte(stray);
    EXPECT_TRUE(r.haltedCleanly);
    EXPECT_FALSE(r.validated);

    const SweepShared::Counts counts = shared.counts();
    EXPECT_EQ(counts.programsBuilt, 1u);
    EXPECT_EQ(counts.goldenRuns, 1u);
}
