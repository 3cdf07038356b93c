/**
 * @file
 * Differential test for the incremental scheduling indices (DESIGN.md
 * section 11).  Under audit=1 the invariant auditor re-derives every
 * index from a brute-force rescan each cycle -- the chain subscriber
 * lists, the per-slot promotion-eligibility bits, the self-timed
 * countdown lists, the O(1) occupancy counters, the ideal queue's
 * ready list, and the writeback ring -- and counts disagreements.
 * Sweeping every workload at both queue sizes with zero disagreements
 * is the evidence that the event-driven tick schedules exactly the
 * same instructions as the per-cycle full scans it replaced.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "iq/segmented_iq.hh"
#include "sim/audit.hh"
#include "sim/simulator.hh"
#include "workload/workloads.hh"

using namespace sciq;

namespace {

using IndexParam = std::tuple<std::string, unsigned>;

class SchedIndexSweep : public ::testing::TestWithParam<IndexParam>
{
};

TEST_P(SchedIndexSweep, SegmentedIndicesMatchRescan)
{
    const auto &[workload, iq_size] = GetParam();

    SimConfig cfg = makeSegmentedConfig(iq_size, 32, true, true, workload);
    cfg.wl.iterations = 200;
    cfg.audit = true;

    Simulator sim(cfg);
    RunResult r = sim.run();

    EXPECT_TRUE(r.haltedCleanly);
    EXPECT_TRUE(r.validated);
    ASSERT_NE(sim.auditor(), nullptr);
    const Auditor &a = *sim.auditor();
    EXPECT_GT(a.cyclesAudited.value(), 0.0);
    EXPECT_EQ(a.occIndex.value(), 0.0);
    EXPECT_EQ(a.promoIndex.value(), 0.0);
    EXPECT_EQ(a.subIndex.value(), 0.0);
    EXPECT_EQ(a.countdownIndex.value(), 0.0);
    EXPECT_EQ(a.wbRingBound.value(), 0.0);
    EXPECT_EQ(r.auditViolations, 0u);

    auto *seg = dynamic_cast<SegmentedIq *>(&sim.core().iqUnit());
    ASSERT_NE(seg, nullptr);
    const double n = static_cast<double>(seg->numSegments());

    // Satellite invariants of the index design: the per-chain signal
    // log is pruned at the delivery horizon, so its peak length stays
    // proportional to the wire pipeline depth (not to run length), and
    // the promotion pass visits no more segments than a full sweep
    // would.
    stats::Group &core_stats = sim.core().statGroup();
    const double log_peak = core_stats.lookup("iq.log_peak");
    EXPECT_GT(log_peak, 0.0);
    EXPECT_LE(log_peak, 8.0 * (n + 2.0));
    const double dirty = core_stats.lookup("iq.dirty_segments");
    EXPECT_LE(dirty, a.cyclesAudited.value() * (n - 1.0));
}

std::string
indexParamName(const ::testing::TestParamInfo<IndexParam> &info)
{
    return std::get<0>(info.param) + "_" +
           std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SchedIndexSweep,
    ::testing::Combine(::testing::ValuesIn(workloadNames()),
                       ::testing::Values(64u, 256u)),
    indexParamName);

TEST(SchedIndexIdeal, ReadyListMatchesRescan)
{
    // The ideal queue's event-driven wakeup keeps a ready list instead
    // of polling the scoreboard; the auditor recomputes readiness for
    // every resident instruction each cycle.
    for (unsigned iq_size : {64u, 256u}) {
        SimConfig cfg = makeIdealConfig(iq_size, "gcc");
        cfg.wl.iterations = 200;
        cfg.audit = true;

        Simulator sim(cfg);
        RunResult r = sim.run();

        EXPECT_TRUE(r.haltedCleanly);
        ASSERT_NE(sim.auditor(), nullptr);
        EXPECT_EQ(sim.auditor()->readyIndex.value(), 0.0);
        EXPECT_EQ(r.auditViolations, 0u);
    }
}

TEST(SchedIndexStats, CountersAreWiredIntoCoreTree)
{
    SimConfig cfg = makeSegmentedConfig(64, 32, true, true, "swim");
    cfg.wl.iterations = 100;
    cfg.audit = true;

    Simulator sim(cfg);
    sim.run();

    stats::Group &core_stats = sim.core().statGroup();
    for (const char *name :
         {"audit.occ_index", "audit.promo_index", "audit.sub_index",
          "audit.countdown_index", "audit.ready_index",
          "audit.wb_ring_bound"}) {
        EXPECT_TRUE(core_stats.contains(name)) << name;
        EXPECT_EQ(core_stats.lookup(name), 0.0) << name;
    }
    EXPECT_TRUE(core_stats.contains("iq.log_peak"));
    EXPECT_TRUE(core_stats.contains("iq.dirty_segments"));
}

} // namespace
