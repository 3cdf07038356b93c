/**
 * @file
 * Invariant-auditor sweep: every workload, the segmented and ideal IQ
 * models at three IQ sizes (512 entries is the benchmark's 16-segment
 * shape) and the prescheduled and FIFO models at 64 entries, all with
 * `audit=1` -- a healthy simulator must report zero violations.  The
 * negative tests prove the auditor actually fires, through the
 * test-only over-promotion fault injection and a corrupted
 * eligibility bit.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "common/errors.hh"
#include "common/logging.hh"
#include "core/ooo_core.hh"
#include "iq/segmented_iq.hh"
#include "sim/audit.hh"
#include "sim/simulator.hh"
#include "workload/workloads.hh"

using namespace sciq;

namespace {

using AuditParam = std::tuple<std::string, std::string, unsigned>;

class AuditSweep : public ::testing::TestWithParam<AuditParam>
{
};

TEST_P(AuditSweep, ZeroViolations)
{
    const auto &[workload, kind, iq_size] = GetParam();

    SimConfig cfg;
    if (kind == "segmented") {
        cfg = makeSegmentedConfig(iq_size, 32, true, true, workload);
    } else if (kind == "prescheduled") {
        // 16-entry issue buffer + lines of 12 (the int64-branchy shape).
        cfg = makePrescheduledConfig(iq_size, workload);
        cfg.core.iq.issueBufferSize = 16;
    } else if (kind == "fifo") {
        cfg = makeFifoConfig(8, iq_size / 8, workload);
    } else {
        cfg = makeIdealConfig(iq_size, workload);
    }
    cfg.wl.iterations = 200;
    cfg.audit = true;
    // The longest commit gap over every healthy case here is 1,969
    // cycles (equake, ideal-512, the cold start); a window 10x that
    // fails a wedged queue within 20k audited cycles instead of the
    // default million.
    cfg.core.watchdogCycles = 20'000;

    Simulator sim(cfg);
    RunResult r = sim.run();

    EXPECT_TRUE(r.haltedCleanly);
    EXPECT_TRUE(r.validated);
    ASSERT_NE(sim.auditor(), nullptr);
    EXPECT_GT(sim.auditor()->cyclesAudited.value(), 0.0);
    EXPECT_EQ(r.auditViolations, 0u)
        << "negative_delay=" << sim.auditor()->negativeDelay.value()
        << " segment_overflow=" << sim.auditor()->segmentOverflow.value()
        << " promotion_bound=" << sim.auditor()->promotionBound.value()
        << " issue_over_width=" << sim.auditor()->issueOverWidth.value()
        << " wire_delivery=" << sim.auditor()->wireDelivery.value()
        << " pool_bound=" << sim.auditor()->poolBound.value()
        << " arrival_index=" << sim.auditor()->arrivalIndex.value()
        << " expiry_index=" << sim.auditor()->expiryIndex.value()
        << " mshr_wait_index=" << sim.auditor()->mshrWaitIndex.value();
}

std::string
auditParamName(const ::testing::TestParamInfo<AuditParam> &info)
{
    return std::get<0>(info.param) + "_" + std::get<1>(info.param) + "_" +
           std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, AuditSweep,
    ::testing::Combine(::testing::ValuesIn(workloadNames()),
                       ::testing::Values("segmented", "ideal"),
                       ::testing::Values(64u, 256u, 512u)),
    auditParamName);

// The other two designs at the 64-entry shapes of the int64-branchy
// benchmark workload: the core-wide invariants (pool bound, issue
// width, writeback ring) must hold under every IQ's dispatch path.
INSTANTIATE_TEST_SUITE_P(
    OtherQueues, AuditSweep,
    ::testing::Combine(::testing::ValuesIn(workloadNames()),
                       ::testing::Values("prescheduled", "fifo"),
                       ::testing::Values(64u)),
    auditParamName);

TEST(AuditStats, GroupIsWiredIntoCoreTree)
{
    SimConfig cfg = makeSegmentedConfig(64, 32, true, true, "swim");
    cfg.wl.iterations = 100;
    cfg.audit = true;

    Simulator sim(cfg);
    sim.run();

    stats::Group &core_stats = sim.core().statGroup();
    EXPECT_TRUE(core_stats.contains("audit.cycles_audited"));
    EXPECT_GT(core_stats.lookup("audit.cycles_audited"), 0.0);
    EXPECT_EQ(core_stats.lookup("audit.promotion_bound"), 0.0);
    EXPECT_EQ(core_stats.lookup("audit.wire_delivery"), 0.0);
    EXPECT_TRUE(core_stats.contains("audit.mshr_wait_index"));
}

TEST(AuditStats, BulkFailedMshrWaitersAreRechecked)
{
    // A 512-entry window saturates the L1D's MSHRs on swim, so waiting
    // misses fail in bulk many times; every one must pass the re-check.
    SimConfig cfg = makeIdealConfig(512, "swim");
    cfg.wl.iterations = 200;
    cfg.audit = true;

    Simulator sim(cfg);
    RunResult r = sim.run();

    EXPECT_TRUE(r.validated);
    const Cache &l1d = sim.core().memHierarchy().dcache();
    EXPECT_GT(l1d.mshrWaitChecks(), 0u);
    EXPECT_EQ(l1d.mshrWaitMismatches(), 0u);
    EXPECT_EQ(sim.core().statGroup().lookup("audit.mshr_wait_index"), 0.0);
    EXPECT_EQ(r.auditViolations, 0u);
}

TEST(AuditNegative, InjectedOverPromotionIsCaught)
{
    // The fault injection ignores the previous-cycle free-entry snapshot
    // when computing the promotion budget, which violates the section 9
    // bound whenever a segment drained this cycle.  The auditor must
    // notice; a zero count here would mean the check is vacuous.  ammp
    // keeps segment 0 close to full, so the injected budget overshoots
    // hundreds of times in 300 iterations.
    SimConfig cfg = makeSegmentedConfig(64, 16, true, true, "ammp");
    cfg.wl.iterations = 300;
    cfg.audit = true;
    cfg.core.iq.auditInjectOverPromote = true;

    Simulator sim(cfg);
    RunResult r = sim.run();

    ASSERT_NE(sim.auditor(), nullptr);
    EXPECT_GT(sim.auditor()->promotionBound.value(), 0.0);
    EXPECT_GT(r.auditViolations, 0u);
}

TEST(AuditNegative, CorruptedEligibilityBitIsCaughtWithinOneCycle)
{
    // The per-slot eligibility bit is the promotion pass's only
    // candidate index.  Set one that the predicate denies on a live
    // 512-entry queue: the audit of the very next cycle must count it.
    SimConfig cfg = makeSegmentedConfig(512, 128, true, true, "swim");
    cfg.wl.iterations = 200;
    cfg.audit = true;

    Simulator sim(cfg);
    bool restored = false;
    sim.prepare(restored);
    OooCore &core = sim.core();
    auto *iq = dynamic_cast<SegmentedIq *>(&core.iqUnit());
    ASSERT_NE(iq, nullptr);
    for (int t = 0; t < 3000; ++t)
        core.tick();
    ASSERT_FALSE(core.halted());
    ASSERT_EQ(sim.auditor()->promoIndex.value(), 0.0);

    ASSERT_TRUE(Auditor::corruptEligibilityBitForTest(*iq));
    core.tick();
    EXPECT_GT(sim.auditor()->promoIndex.value(), 0.0);
}

TEST(AuditNegative, CorruptedRegisterLaneIsCaughtWithinOneCycle)
{
    // The register table is one more lane per architectural register
    // in the slot pool, and the lane checks cover it as they cover a
    // resident's memberships.  Clear a pending table lane's countdown
    // bit on a live 512-entry queue: the next cycle's audit must count
    // it.
    SimConfig cfg = makeSegmentedConfig(512, 128, true, true, "swim");
    cfg.wl.iterations = 200;
    cfg.audit = true;

    Simulator sim(cfg);
    bool restored = false;
    sim.prepare(restored);
    OooCore &core = sim.core();
    auto *iq = dynamic_cast<SegmentedIq *>(&core.iqUnit());
    ASSERT_NE(iq, nullptr);
    for (int t = 0; t < 3000; ++t)
        core.tick();
    ASSERT_FALSE(core.halted());
    const Auditor &audit = *sim.auditor();
    ASSERT_EQ(audit.countdownIndex.value() + audit.arrivalIndex.value(), 0.0);

    // The hook needs a lane counting down with nothing due to rewrite
    // its bit; on this run one turns up within a few cycles.
    int waited = 0;
    while (!Auditor::corruptRegisterLaneForTest(*iq)) {
        ASSERT_LT(++waited, 1000) << "no counting-down table lane";
        core.tick();
    }
    core.tick();
    EXPECT_GT(audit.countdownIndex.value() + audit.arrivalIndex.value(), 0.0);
}

TEST(AuditNegative, DetailIsBuiltOnlyForReportedViolations)
{
    // A faulty queue can violate an invariant every cycle; the detail
    // (often a whole segment dump) is built only for the violations
    // that are warned about, and once under panic.
    Auditor counting;
    int built = 0;
    auto detail = [&built] {
        ++built;
        return std::string("detail");
    };
    const int total = 3 * static_cast<int>(Auditor::kMaxWarnings);
    for (int i = 0; i < total; ++i)
        counting.violation(counting.promotionBound, "test", i, detail);
    EXPECT_EQ(built, static_cast<int>(Auditor::kMaxWarnings));
    EXPECT_EQ(counting.totalViolations(), static_cast<std::uint64_t>(total));
    EXPECT_EQ(counting.promotionBound.value(), total);

    Auditor panicking(/*panic_on_violation=*/true);
    built = 0;
    try {
        panicking.violation(panicking.promotionBound, "test", 7, detail);
        FAIL() << "expected InvariantError";
    } catch (const InvariantError &e) {
        EXPECT_EQ(e.context(), "detail");
    }
    EXPECT_EQ(built, 1);
}

TEST(AuditNegative, PanicModeThrowsOnFirstViolation)
{
    SimConfig cfg = makeSegmentedConfig(64, 16, true, true, "ammp");
    cfg.wl.iterations = 300;
    cfg.audit = true;
    cfg.auditPanic = true;
    cfg.core.iq.auditInjectOverPromote = true;

    Simulator sim(cfg);
    try {
        sim.run();
        FAIL() << "expected InvariantError";
    } catch (const InvariantError &e) {
        EXPECT_EQ(e.code(), ErrorCode::Invariant);
        EXPECT_NE(std::string(e.what()).find("promotions"), std::string::npos);
        EXPECT_FALSE(e.context().empty()) << "panic path must capture a dump";
    }
}

} // namespace
