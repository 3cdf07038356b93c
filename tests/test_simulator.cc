/** @file Tests for the simulation facade and configuration plumbing. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/errors.hh"
#include "sim/simulator.hh"

using namespace sciq;

TEST(SimConfig, FactoryHelpers)
{
    SimConfig ideal = makeIdealConfig(256, "mgrid");
    EXPECT_EQ(ideal.core.iqKind, IqKind::Ideal);
    EXPECT_EQ(ideal.core.iq.numEntries, 256u);
    EXPECT_EQ(ideal.workload, "mgrid");

    SimConfig seg = makeSegmentedConfig(512, 128, true, false, "swim");
    EXPECT_EQ(seg.core.iqKind, IqKind::Segmented);
    EXPECT_EQ(seg.core.iq.maxChains, 128);
    EXPECT_TRUE(seg.core.iq.useHmp);
    EXPECT_FALSE(seg.core.iq.useLrp);
    EXPECT_EQ(seg.core.iq.segmentSize, 32u);

    SimConfig pre = makePrescheduledConfig(320, "gcc");
    EXPECT_EQ(pre.core.iqKind, IqKind::Prescheduled);
    EXPECT_EQ(pre.core.iq.numEntries, 320u);
    EXPECT_EQ(pre.core.iq.issueBufferSize, 32u);

    SimConfig fifo = makeFifoConfig(16, 32, "twolf");
    EXPECT_EQ(fifo.core.iqKind, IqKind::Fifo);
    EXPECT_EQ(fifo.core.iq.numFifos, 16u);
}

TEST(SimConfig, ApplyOverrides)
{
    // Every key with a non-default value and the field it must land
    // in, written out by hand as an independent check of the key
    // table's field bindings.
    const std::vector<std::pair<std::string, std::string>> settings = {
        {"iq", "prescheduled"},     {"iq_size", "704"},
        {"seg_size", "16"},         {"chains", "64"},
        {"hmp", "1"},               {"lrp", "1"},
        {"pushdown", "0"},          {"bypass", "0"},
        {"resize", "1"},            {"resize_interval", "1000"},
        {"issue_buffer", "24"},     {"line_width", "6"},
        {"fifos", "8"},             {"depth", "12"},
        {"wrong_path", "0"},        {"workload", "vortex"},
        {"iters", "1234"},          {"seed", "99"},
        {"scale", "2.5"},           {"max_cycles", "5k"},
        {"validate", "0"},          {"audit", "1"},
        {"audit_panic", "1"},       {"ff", "300"},
        {"watchdog_cycles", "777"}, {"deadline_sec", "1.5"},
        {"fault_commit_stall", "42"}, {"fault_overpromote", "1"},
    };
    std::vector<std::string> names;
    ConfigMap m;
    for (const auto &[key, value] : settings) {
        names.push_back(key);
        m.set(key, value);
    }
    std::vector<std::string> keys = SimConfig::keys();
    std::sort(names.begin(), names.end());
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(names, keys);

    SimConfig cfg;
    cfg.apply(m);
    const IqParams &iq = cfg.core.iq;
    EXPECT_EQ(cfg.core.iqKind, IqKind::Prescheduled);
    EXPECT_EQ(iq.numEntries, 704u);
    EXPECT_EQ(iq.segmentSize, 16u);
    EXPECT_EQ(iq.maxChains, 64);
    EXPECT_TRUE(iq.useHmp);
    EXPECT_TRUE(iq.useLrp);
    EXPECT_FALSE(iq.enablePushdown);
    EXPECT_FALSE(iq.enableBypass);
    EXPECT_TRUE(iq.dynamicResize);
    EXPECT_EQ(iq.resizeInterval, 1000u);
    EXPECT_EQ(iq.issueBufferSize, 24u);
    EXPECT_EQ(iq.preschedLineWidth, 6u);
    EXPECT_EQ(iq.numFifos, 8u);
    EXPECT_EQ(iq.fifoDepth, 12u);
    EXPECT_FALSE(cfg.core.modelWrongPath);
    EXPECT_EQ(cfg.workload, "vortex");
    EXPECT_EQ(cfg.wl.iterations, 1234u);
    EXPECT_EQ(cfg.wl.seed, 99u);
    EXPECT_DOUBLE_EQ(cfg.wl.scale, 2.5);
    EXPECT_EQ(cfg.maxCycles, 5000u);
    EXPECT_FALSE(cfg.validate);
    EXPECT_TRUE(cfg.audit);
    EXPECT_TRUE(cfg.auditPanic);
    EXPECT_EQ(cfg.fastForward, 300u);
    EXPECT_EQ(cfg.core.watchdogCycles, 777u);
    EXPECT_DOUBLE_EQ(cfg.deadlineSec, 1.5);
    EXPECT_EQ(cfg.core.faultCommitStallAt, 42u);
    EXPECT_TRUE(iq.auditInjectOverPromote);
}

TEST(SimConfig, ValuesBelowMinimumThrowConfigError)
{
    for (const char *setting :
         {"iq_size=0", "seg_size=0", "line_width=0", "fifos=0",
          "deadline_sec=-1"}) {
        ConfigMap m;
        ASSERT_TRUE(m.parseLine(setting));
        SimConfig cfg;
        try {
            cfg.apply(m);
            ADD_FAILURE() << setting << " was accepted";
        } catch (const ConfigError &e) {
            const std::string key(setting, std::strchr(setting, '='));
            EXPECT_NE(std::string(e.what()).find("'" + key + "'"),
                      std::string::npos)
                << e.what();
        }
    }
    ConfigMap ok;
    for (const char *setting : {"iq_size=1", "seg_size=1", "line_width=1",
                                "fifos=1", "deadline_sec=0", "chains=-1"})
        ASSERT_TRUE(ok.parseLine(setting));
    SimConfig cfg;
    EXPECT_NO_THROW(cfg.apply(ok));
}

TEST(SimConfig, BadIqKindThrowsConfigError)
{
    SimConfig cfg;
    ConfigMap m;
    m.set("iq", "quantum");
    EXPECT_THROW(cfg.apply(m), ConfigError);
}

TEST(SimConfig, UnknownWorkloadThrowsConfigError)
{
    SimConfig cfg;
    ConfigMap m;
    m.set("workload", "bogus");
    try {
        cfg.apply(m);
        ADD_FAILURE() << "workload=bogus was accepted";
    } catch (const ConfigError &e) {
        // The complaint lists the valid kernels.
        EXPECT_NE(std::string(e.what()).find("swim"), std::string::npos)
            << e.what();
    }
}

TEST(SimConfig, UnbuildableGeometryIsACommandLineComplaint)
{
    // Each value is fine alone; together they describe no IQ.
    const char *argv[] = {"front-end", "iq_size=100", nullptr};
    for (IqKind kind : {IqKind::Segmented, IqKind::Prescheduled}) {
        SimConfig cfg;
        cfg.core.iqKind = kind;
        const std::string bad =
            cfg.applyCommandLine(ConfigMap::fromArgs(2, argv));
        EXPECT_NE(bad.find("'iq_size'"), std::string::npos)
            << iqKindName(kind);
    }
    const char *fine[] = {"front-end", "iq_size=128", nullptr};
    EXPECT_EQ(SimConfig().applyCommandLine(ConfigMap::fromArgs(2, fine)),
              "");
}

TEST(SimConfig, PrintParametersMentionsTable1)
{
    SimConfig cfg = makeSegmentedConfig(512, 128, true, true, "swim");
    std::ostringstream os;
    cfg.printParameters(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("segmented"), std::string::npos);
    EXPECT_NE(out.find("16 segments of 32"), std::string::npos);
    EXPECT_NE(out.find("chains=128"), std::string::npos);
    EXPECT_NE(out.find("100-cycle"), std::string::npos);
}

TEST(Simulator, RunProducesPopulatedResult)
{
    SimConfig cfg = makeSegmentedConfig(128, 64, true, true, "twolf");
    cfg.wl.iterations = 200;
    RunResult r = runSim(cfg);
    EXPECT_EQ(r.workload, "twolf");
    EXPECT_EQ(r.iqKind, std::string("segmented"));
    EXPECT_EQ(r.iqSize, 128u);
    EXPECT_EQ(r.chains, 64);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.insts, 0u);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_TRUE(r.haltedCleanly);
    EXPECT_TRUE(r.validated);
    EXPECT_GT(r.avgChains, 0.0);
    EXPECT_GE(r.peakChains, r.avgChains);
}

TEST(Simulator, ChainStatsOnlyForSegmented)
{
    SimConfig cfg = makeIdealConfig(64, "twolf");
    cfg.wl.iterations = 100;
    RunResult r = runSim(cfg);
    EXPECT_EQ(r.avgChains, 0.0);
    EXPECT_EQ(r.chains, -1);
}

TEST(Simulator, ResultTablePrinting)
{
    RunResult r;
    r.workload = "swim";
    r.iqKind = "segmented";
    r.iqSize = 512;
    r.chains = 128;
    r.cycles = 1000;
    r.insts = 800;
    r.ipc = 0.8;
    r.validated = true;
    std::ostringstream os;
    printResultHeader(os);
    printResultRow(os, r);
    const std::string out = os.str();
    EXPECT_NE(out.find("swim"), std::string::npos);
    EXPECT_NE(out.find("128"), std::string::npos);
    EXPECT_NE(out.find("0.800"), std::string::npos);
}

TEST(Simulator, MaxCyclesCapsRunaways)
{
    SimConfig cfg = makeIdealConfig(64, "swim");
    cfg.maxCycles = 500;
    cfg.validate = true;  // prefix validation must still pass
    RunResult r = runSim(cfg);
    EXPECT_FALSE(r.haltedCleanly);
    EXPECT_LE(r.cycles, 501u);
    EXPECT_TRUE(r.validated);  // committed prefix matches the oracle
}
