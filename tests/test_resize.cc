/** @file Tests for dynamic segment resizing (paper section 7). */

#include <gtest/gtest.h>

#include "iq/segmented_iq.hh"
#include "iq_harness.hh"
#include "sim/simulator.hh"

using namespace sciq;
using namespace sciq::test;

namespace {

struct ResizeFixture : public ::testing::Test
{
    ResizeFixture() : scoreboard(128), rec(scoreboard)
    {
        params.numEntries = 16;
        params.segmentSize = 4;
        params.issueWidth = 4;
        params.maxChains = -1;
        params.dynamicResize = true;
        params.resizeInterval = 4;
    }

    std::unique_ptr<SegmentedIq>
    makeIq()
    {
        return std::make_unique<SegmentedIq>(params, scoreboard, fu,
                                             &hmp, &lrp);
    }

    IqParams params;
    Scoreboard scoreboard;
    FuPool fu;
    HitMissPredictor hmp{64};
    LeftRightPredictor lrp{64};
    IssueRecorder rec;
    Cycle cycle = 0;
};

} // namespace

TEST_F(ResizeFixture, StartsMinimalAndGrowsUnderPressure)
{
    auto iq = makeIq();
    EXPECT_EQ(iq->activeSegmentCount(), 1u);

    // Fill the active segment with unready instructions.
    scoreboard.clearReady(intReg(1));
    SeqNum s = 1;
    for (; s <= 4; ++s) {
        auto ld = makeInst(s, Opcode::LD, intReg(20 + s), intReg(1));
        ASSERT_TRUE(iq->tryInsert(ld, cycle));
        scoreboard.clearReady(ld->physDst);
    }
    // Capacity exhausted at one active segment.
    auto extra = makeInst(s, Opcode::LD, intReg(27), intReg(1));
    EXPECT_FALSE(iq->tryInsert(extra, cycle));
    EXPECT_EQ(iq->occupancy(), 4u);

    // A resize check re-enables a segment.
    for (int i = 0; i < 6; ++i)
        iq->tick(++cycle, true);
    EXPECT_GE(iq->activeSegmentCount(), 2u);
    EXPECT_TRUE(iq->tryInsert(extra, cycle));
    EXPECT_EQ(iq->occupancy(), 5u);
    EXPECT_GT(iq->resizeGrows.value(), 0.0);
}

TEST_F(ResizeFixture, ShrinksOnlyWhenTopSegmentEmpty)
{
    auto iq = makeIq();
    scoreboard.clearReady(intReg(1));
    // Grow to 2 segments by pressure.
    SeqNum s = 1;
    for (; s <= 4; ++s) {
        auto ld = makeInst(s, Opcode::LD, intReg(20 + s), intReg(1));
        ASSERT_TRUE(iq->tryInsert(ld, cycle));
        scoreboard.clearReady(ld->physDst);
    }
    for (int i = 0; i < 6; ++i)
        iq->tick(++cycle, true);
    ASSERT_GE(iq->activeSegmentCount(), 2u);

    // Drain everything; after the shrink threshold it gates back down.
    scoreboard.setReady(intReg(1));
    for (SeqNum q = 1; q <= 4; ++q)
        scoreboard.setReady(intReg(20 + q));
    for (int i = 0; i < 40 && iq->occupancy() > 0; ++i) {
        iq->issueSelect(cycle, rec.acceptAll());
        iq->tick(++cycle, false);
    }
    ASSERT_EQ(iq->occupancy(), 0u);
    for (int i = 0; i < 12; ++i)
        iq->tick(++cycle, false);
    EXPECT_EQ(iq->activeSegmentCount(), 1u);
    EXPECT_GT(iq->resizeShrinks.value(), 0.0);
}

TEST_F(ResizeFixture, EnergyProxyTracksActiveSegments)
{
    auto iq = makeIq();
    for (int i = 0; i < 10; ++i)
        iq->tick(++cycle, false);
    // One active segment x 10 cycles.
    EXPECT_DOUBLE_EQ(iq->segmentCyclesActive.value(), 10.0);
    EXPECT_DOUBLE_EQ(iq->activeSegmentsAvg.value(), 1.0);
}

TEST(ResizeIntegration, CorrectnessUnchangedWithResizing)
{
    SimConfig cfg = makeSegmentedConfig(256, 64, true, true, "equake");
    cfg.core.iq.dynamicResize = true;
    cfg.core.iq.resizeInterval = 64;
    cfg.wl.iterations = 250;
    RunResult r = runSim(cfg);
    EXPECT_TRUE(r.haltedCleanly);
    EXPECT_TRUE(r.validated);
}

TEST(ResizeIntegration, LowOccupancyCodeKeepsSegmentsGated)
{
    SimConfig cfg = makeSegmentedConfig(512, 128, true, true, "gcc");
    cfg.core.iq.dynamicResize = true;
    cfg.wl.iterations = 2000;
    cfg.validate = false;
    Simulator sim(cfg);
    RunResult r = sim.run();
    ASSERT_TRUE(r.haltedCleanly);
    auto &seg = dynamic_cast<SegmentedIq &>(sim.core().iqUnit());
    EXPECT_LT(seg.activeSegmentsAvg.value(), 6.0);  // of 16
}

TEST(ResizeIntegration, WindowHungryCodeGrowsToFullSize)
{
    SimConfig cfg = makeSegmentedConfig(512, 128, true, true, "swim");
    cfg.core.iq.dynamicResize = true;
    cfg.wl.iterations = 2500;
    cfg.validate = false;
    Simulator sim(cfg);
    RunResult r = sim.run();
    ASSERT_TRUE(r.haltedCleanly);
    auto &seg = dynamic_cast<SegmentedIq &>(sim.core().iqUnit());
    EXPECT_GT(seg.activeSegmentsAvg.value(), 8.0);
}
