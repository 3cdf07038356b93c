/**
 * @file
 * Negative tests for the fault-injection / detection / recovery matrix
 * (DESIGN.md §13): each injected fault must trip exactly the detection
 * path it targets, and containment must actually recover.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/errors.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"

using namespace sciq;
namespace fs = std::filesystem;

namespace {

/** Fresh scratch directory under the system temp dir, per test. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &name)
        : path_(fs::temp_directory_path() / ("sciq-fault-test-" + name))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~ScratchDir() { fs::remove_all(path_); }

    std::string str() const { return path_.string(); }
    fs::path operator/(const std::string &leaf) const { return path_ / leaf; }

  private:
    fs::path path_;
};

SimConfig
smallConfig(const std::string &workload = "swim")
{
    SimConfig cfg = makeSegmentedConfig(64, 32, true, true, workload);
    cfg.wl.iterations = 200;
    return cfg;
}

// ---------------------------------------------------------------------
// Commit-stall fault -> watchdog detection.

TEST(Watchdog, InjectedCommitStallThrowsDeadlockWithDump)
{
    SimConfig cfg = smallConfig();
    cfg.wl.iterations = 5000;
    cfg.core.faultCommitStallAt = 200;
    cfg.core.watchdogCycles = 2000;

    Simulator sim(cfg);
    try {
        sim.run();
        FAIL() << "expected DeadlockError";
    } catch (const DeadlockError &e) {
        EXPECT_EQ(e.code(), ErrorCode::Deadlock);
        EXPECT_FALSE(e.isTimeout());
        EXPECT_NE(std::string(e.what()).find("no instruction committed"),
                  std::string::npos);
        // The embedded pipeline dump names the core and IQ state.
        EXPECT_NE(e.context().find("core state"), std::string::npos);
        EXPECT_NE(e.context().find("rob="), std::string::npos);
        EXPECT_NE(e.context().find("segmented iq"), std::string::npos);
        EXPECT_NE(e.context().find("segment 0"), std::string::npos);
    }
}

TEST(Watchdog, CleanRunsNeverTrip)
{
    SimConfig cfg = smallConfig();
    cfg.core.watchdogCycles = 2000;  // far below the 1M default
    RunResult r = runSim(cfg);
    EXPECT_TRUE(r.haltedCleanly);
    EXPECT_TRUE(r.validated);
}

TEST(Watchdog, ZeroDisables)
{
    SimConfig cfg = smallConfig();
    cfg.wl.iterations = 50;
    cfg.core.faultCommitStallAt = 200;
    cfg.core.watchdogCycles = 0;
    cfg.maxCycles = 5000;  // the cap, not the watchdog, ends the run
    cfg.validate = false;
    RunResult r = runSim(cfg);
    EXPECT_FALSE(r.haltedCleanly);
}

TEST(Watchdog, SweepContainsDeadlockAndWritesArtifact)
{
    ScratchDir dir("artifacts");
    std::vector<SimConfig> cfgs = {smallConfig(), smallConfig("gcc")};
    cfgs[0].wl.iterations = 5000;
    cfgs[0].core.faultCommitStallAt = 200;
    cfgs[0].core.watchdogCycles = 2000;

    SweepRunner::Options options;
    options.artifactDir = dir.str();
    std::vector<RunResult> results = SweepRunner(2).run(cfgs, options);

    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].outcome.status, JobOutcome::Status::Failed);
    EXPECT_EQ(results[0].outcome.code, ErrorCode::Deadlock);
    EXPECT_TRUE(results[1].outcome.ok());
    EXPECT_TRUE(results[1].validated);

    const std::string artifact = (dir / "job0-deadlock.dump").string();
    ASSERT_TRUE(fs::exists(artifact)) << artifact;
    EXPECT_GT(fs::file_size(artifact), 100u);
}

// ---------------------------------------------------------------------
// Wall-clock deadline -> timeout classification.

TEST(Deadline, ExpiredDeadlineIsTimeout)
{
    SimConfig cfg = smallConfig("ammp");
    cfg.wl.iterations = 100000;  // long enough to outlive the deadline
    cfg.deadlineSec = 1e-9;
    cfg.validate = false;

    try {
        runSim(cfg);
        FAIL() << "expected DeadlockError timeout";
    } catch (const DeadlockError &e) {
        EXPECT_TRUE(e.isTimeout());
        EXPECT_FALSE(e.context().empty());
    }

    std::vector<SimConfig> cfgs = {cfg};
    std::vector<RunResult> results = SweepRunner(1).run(cfgs);
    EXPECT_EQ(results[0].outcome.status, JobOutcome::Status::Timeout);
    EXPECT_EQ(results[0].outcome.code, ErrorCode::Deadlock);
}

// ---------------------------------------------------------------------
// Over-promotion fault -> auditor detection (through the taxonomy).

TEST(AuditFaults, InjectedOverPromotionContainedInSweep)
{
    SimConfig cfg = smallConfig();
    cfg.wl.iterations = 300;
    cfg.audit = true;
    cfg.auditPanic = true;
    cfg.core.iq.auditInjectOverPromote = true;

    std::vector<SimConfig> cfgs = {cfg};
    std::vector<RunResult> results = SweepRunner(1).run(cfgs);
    EXPECT_EQ(results[0].outcome.status, JobOutcome::Status::Failed);
    EXPECT_EQ(results[0].outcome.code, ErrorCode::Invariant);
}

TEST(ConfigFaults, UnbuildableGeometryContainedInSweep)
{
    // 100 entries is not a whole number of 32-entry segments: a user
    // error, so a config row, not an invariant one.
    SimConfig cfg = smallConfig();
    cfg.core.iq.numEntries = 100;
    std::vector<SimConfig> cfgs = {cfg};
    std::vector<RunResult> results = SweepRunner(1).run(cfgs);
    EXPECT_EQ(results[0].outcome.status, JobOutcome::Status::Failed);
    EXPECT_EQ(results[0].outcome.code, ErrorCode::Config);
    EXPECT_NE(results[0].outcome.message.find("'iq_size'"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Config keys end to end.

// Name kept from when the keys also built a checkpoint-read injector.
TEST(FaultKeys, ConfigMapBuildsInjectorAndWatchdog)
{
    SimConfig cfg;
    ConfigMap m;
    m.set("watchdog_cycles", "12345");
    m.set("deadline_sec", "2.5");
    m.set("fault_commit_stall", "777");
    m.set("fault_overpromote", "1");
    cfg.apply(m);

    EXPECT_EQ(cfg.core.watchdogCycles, 12345u);
    EXPECT_DOUBLE_EQ(cfg.deadlineSec, 2.5);
    EXPECT_EQ(cfg.core.faultCommitStallAt, 777u);
    EXPECT_TRUE(cfg.core.iq.auditInjectOverPromote);
}

} // namespace
