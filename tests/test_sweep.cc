/**
 * @file
 * SweepRunner: deterministic result ordering under parallel execution,
 * worker-count handling, what a sweep shares among its jobs, fault
 * containment, the sweep key, and the JSON emitter.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <type_traits>

#include "common/errors.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "core/ooo_core.hh"
#include "isa/functional_core.hh"
#include "sim/checkpoint.hh"
#include "sim/sweep.hh"

using namespace sciq;

namespace {

/**
 * Bit-for-bit double equality: EXPECT_EQ fails on NaN == NaN, but for
 * determinism checks an undefined rate must reproduce as the *same*
 * undefined rate.
 */
void
expectSameBits(double a, double b, const char *field, std::size_t i)
{
    std::uint64_t ab, bb;
    std::memcpy(&ab, &a, sizeof(ab));
    std::memcpy(&bb, &b, sizeof(bb));
    EXPECT_EQ(ab, bb) << field << " differs (" << a << " vs " << b
                      << ") config " << i;
}

std::vector<SimConfig>
smallConfigSet()
{
    std::vector<SimConfig> cfgs;
    for (const auto &wl : {"swim", "gcc"}) {
        for (unsigned size : {32u, 64u}) {
            SimConfig seg = makeSegmentedConfig(size, 32, true, true, wl);
            seg.wl.iterations = 200;
            cfgs.push_back(seg);
        }
        SimConfig ideal = makeIdealConfig(64, wl);
        ideal.wl.iterations = 200;
        cfgs.push_back(ideal);
    }
    return cfgs;
}

/**
 * Every architected field of RunResult, bit-for-bit.  The host-
 * performance fields (hostSeconds and the derived rates) are wall-clock
 * measurements and deliberately excluded: two identical simulations
 * never take identical host time.
 */
void
expectIdentical(const RunResult &a, const RunResult &b, std::size_t i)
{
    EXPECT_EQ(a.workload, b.workload) << "config " << i;
    EXPECT_EQ(a.iqKind, b.iqKind) << "config " << i;
    EXPECT_EQ(a.iqSize, b.iqSize) << "config " << i;
    EXPECT_EQ(a.chains, b.chains) << "config " << i;
    EXPECT_EQ(a.cycles, b.cycles) << "config " << i;
    EXPECT_EQ(a.insts, b.insts) << "config " << i;
    expectSameBits(a.ipc, b.ipc, "ipc", i);
    expectSameBits(a.avgChains, b.avgChains, "avgChains", i);
    expectSameBits(a.peakChains, b.peakChains, "peakChains", i);
    expectSameBits(a.hmpAccuracy, b.hmpAccuracy, "hmpAccuracy", i);
    expectSameBits(a.hmpCoverage, b.hmpCoverage, "hmpCoverage", i);
    expectSameBits(a.lrpMispredictRate, b.lrpMispredictRate,
                   "lrpMispredictRate", i);
    expectSameBits(a.branchMispredictRate, b.branchMispredictRate,
                   "branchMispredictRate", i);
    expectSameBits(a.iqOccupancyAvg, b.iqOccupancyAvg, "iqOccupancyAvg",
                   i);
    expectSameBits(a.seg0ReadyAvg, b.seg0ReadyAvg, "seg0ReadyAvg", i);
    expectSameBits(a.seg0OccupancyAvg, b.seg0OccupancyAvg,
                   "seg0OccupancyAvg", i);
    expectSameBits(a.deadlockCycleFrac, b.deadlockCycleFrac,
                   "deadlockCycleFrac", i);
    expectSameBits(a.twoOutstandingFrac, b.twoOutstandingFrac,
                   "twoOutstandingFrac", i);
    expectSameBits(a.headsFromLoadsFrac, b.headsFromLoadsFrac,
                   "headsFromLoadsFrac", i);
    expectSameBits(a.l1dMissRate, b.l1dMissRate, "l1dMissRate", i);
    expectSameBits(a.l1dDelayedHitFrac, b.l1dDelayedHitFrac,
                   "l1dDelayedHitFrac", i);
    expectSameBits(a.segActiveAvg, b.segActiveAvg, "segActiveAvg", i);
    expectSameBits(a.segCyclesActive, b.segCyclesActive,
                   "segCyclesActive", i);
    EXPECT_EQ(a.auditViolations, b.auditViolations) << "config " << i;
    EXPECT_EQ(a.validated, b.validated) << "config " << i;
    EXPECT_EQ(a.haltedCleanly, b.haltedCleanly) << "config " << i;
}

TEST(SweepRunner, ParallelMatchesSerialBitForBit)
{
    const std::vector<SimConfig> cfgs = smallConfigSet();

    std::vector<RunResult> serial = SweepRunner(1).run(cfgs);
    std::vector<RunResult> parallel = SweepRunner(4).run(cfgs);

    ASSERT_EQ(serial.size(), cfgs.size());
    ASSERT_EQ(parallel.size(), cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        expectIdentical(serial[i], parallel[i], i);
}

TEST(SweepRunner, PreservesInputOrder)
{
    const std::vector<SimConfig> cfgs = smallConfigSet();
    std::vector<RunResult> results = SweepRunner(4).run(cfgs);
    ASSERT_EQ(results.size(), cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        EXPECT_EQ(results[i].workload, cfgs[i].workload);
        EXPECT_EQ(results[i].iqSize, cfgs[i].core.iq.numEntries);
        EXPECT_TRUE(results[i].haltedCleanly);
        EXPECT_TRUE(results[i].validated);
        // Host-perf sampling rides along with every run.
        EXPECT_GT(results[i].hostSeconds, 0.0);
        EXPECT_GT(results[i].hostKcyclesPerSec, 0.0);
        EXPECT_GT(results[i].hostKinstsPerSec, 0.0);
    }
}

TEST(SweepRunner, MoreJobsThanConfigs)
{
    SimConfig cfg = makeSegmentedConfig(32, 16, false, false, "swim");
    cfg.wl.iterations = 100;
    std::vector<RunResult> r = SweepRunner(16).run({cfg});
    ASSERT_EQ(r.size(), 1u);
    EXPECT_TRUE(r[0].haltedCleanly);
}

TEST(SweepRunner, EmptyBatch)
{
    EXPECT_TRUE(SweepRunner(4).run({}).empty());
}

TEST(SweepRunner, DefaultJobsIsNonZero)
{
    EXPECT_GE(SweepRunner(0).jobs(), 1u);
    EXPECT_EQ(SweepRunner(3).jobs(), 3u);
}

TEST(SweepRunner, ProgressCallbackSeesEveryRun)
{
    const std::vector<SimConfig> cfgs = smallConfigSet();
    std::size_t calls = 0;
    std::size_t last_done = 0;
    SweepRunner(2).run(cfgs,
                       [&](std::size_t done, std::size_t total,
                           const RunResult &r) {
                           ++calls;
                           EXPECT_EQ(total, cfgs.size());
                           EXPECT_GT(done, last_done);
                           last_done = done;
                           EXPECT_FALSE(r.workload.empty());
                       });
    EXPECT_EQ(calls, cfgs.size());
}

TEST(SweepRunner, ProgressCallbackExceptionPropagatesAfterDrain)
{
    // Jobs never throw; the caller's callback is the one thing that
    // can.  Its exception leaves run() once every worker has stopped.
    const std::vector<SimConfig> cfgs = smallConfigSet();
    std::size_t calls = 0;
    EXPECT_THROW(SweepRunner(2).run(cfgs,
                                    [&](std::size_t, std::size_t,
                                        const RunResult &) {
                                        if (++calls == 1)
                                            throw std::runtime_error("cb");
                                    }),
                 std::runtime_error);
    EXPECT_GE(calls, 1u);
}

/**
 * Regression for the lost-results bug: the old runner rethrew the first
 * worker exception and discarded every completed job's result.  Now the
 * failing job is contained into its outcome and the other N-1 results
 * must survive, bit-identical to a clean run of those same configs.
 */
TEST(SweepFaultContainment, FailedJobContainedOthersBitIdentical)
{
    std::vector<SimConfig> cfgs = smallConfigSet();
    cfgs[2].workload = "no-such-workload";

    std::vector<SimConfig> good = cfgs;
    good.erase(good.begin() + 2);
    const std::vector<RunResult> clean = SweepRunner(1).run(good);

    for (unsigned jobs : {1u, 4u}) {
        std::vector<RunResult> results = SweepRunner(jobs).run(cfgs);
        ASSERT_EQ(results.size(), cfgs.size());

        const RunResult &bad = results[2];
        EXPECT_EQ(bad.outcome.status, JobOutcome::Status::Failed);
        EXPECT_EQ(bad.outcome.code, ErrorCode::Workload);
        EXPECT_NE(bad.outcome.message.find("no-such-workload"),
                  std::string::npos);
        // Identity fields survive so the row never vanishes from tables.
        EXPECT_EQ(bad.workload, "no-such-workload");
        EXPECT_EQ(bad.iqKind, "ideal");

        std::size_t j = 0;
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (i == 2)
                continue;
            EXPECT_TRUE(results[i].outcome.ok()) << "config " << i;
            expectIdentical(clean[j], results[i], i);
            ++j;
        }
    }
}

TEST(SweepFaultContainment, FailedJobSurfacesInJson)
{
    std::vector<SimConfig> cfgs = smallConfigSet();
    cfgs.resize(2);
    cfgs[1].workload = "no-such-workload";

    std::vector<RunResult> results = SweepRunner(1).run(cfgs);
    std::ostringstream os;
    writeResultsJson(os, results);

    json::Value v = json::parse(os.str());
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v.at(std::size_t{0}).at("outcome").asString(), "ok");
    EXPECT_EQ(v.at(std::size_t{0}).at("error_code").asString(), "none");
    EXPECT_EQ(v.at(std::size_t{1}).at("outcome").asString(), "failed");
    EXPECT_EQ(v.at(std::size_t{1}).at("error_code").asString(), "workload");
    EXPECT_NE(v.at(std::size_t{1}).at("error_msg").asString().find(
                  "no-such-workload"),
              std::string::npos);
}

TEST(SweepFaultContainment, ProgressReportsContainedFailures)
{
    std::vector<SimConfig> cfgs = smallConfigSet();
    cfgs[1].workload = "no-such-workload";
    std::size_t calls = 0, failures = 0;
    SweepRunner::Options options;
    options.progress = [&](std::size_t, std::size_t,
                           const RunResult &r) {
        ++calls;
        if (!r.outcome.ok())
            ++failures;
    };
    SweepRunner(2).run(cfgs, options);
    EXPECT_EQ(calls, cfgs.size());
    EXPECT_EQ(failures, 1u);
}

namespace {

/**
 * A validating fast-forward sweep, `inputs` × three queues sharing one
 * checkpoint cache.
 */
std::vector<SimConfig>
fastForwardSweep(const std::vector<std::string> &inputs)
{
    auto cache = std::make_shared<CheckpointCache>();
    std::vector<SimConfig> cfgs;
    for (const std::string &wl : inputs) {
        for (SimConfig cfg : {makeIdealConfig(64, wl),
                              makeSegmentedConfig(64, 32, true, true, wl),
                              makeFifoConfig(8, 8, wl)}) {
            cfg.wl.iterations = 200;
            cfg.fastForward = 2000;
            cfg.validate = true;
            cfg.ckptCache = cache;
            cfgs.push_back(cfg);
        }
    }
    return cfgs;
}

SweepShared::Counts
runCounted(const std::vector<SimConfig> &cfgs)
{
    SweepShared::Counts reuse;
    SweepRunner::Options options;
    options.reuse = &reuse;
    for (const RunResult &r : SweepRunner(2).run(cfgs, options)) {
        EXPECT_TRUE(r.outcome.ok()) << r.outcome.message;
        EXPECT_TRUE(r.haltedCleanly) << r.workload << " " << r.iqKind;
        EXPECT_TRUE(r.validated) << r.workload << " " << r.iqKind;
    }
    return reuse;
}

} // namespace

TEST(SweepReuse, EachInputBuildsValidatesAndWarmsOnce)
{
    const SweepShared::Counts reuse =
        runCounted(fastForwardSweep({"swim", "gcc"}));
    EXPECT_EQ(reuse.programsBuilt, 2u);
    EXPECT_EQ(reuse.goldenRuns, 2u);
    EXPECT_EQ(reuse.warmUps, 2u);
}

TEST(SweepReuse, CappedJobGetsItsOwnGoldenRun)
{
    // A job stopped by max_cycles commits fewer instructions, so it is
    // validated against a shorter golden run of the same program.
    std::vector<SimConfig> cfgs = fastForwardSweep({"swim"});
    cfgs[1].maxCycles = 3000;
    SweepShared::Counts reuse;
    SweepRunner::Options options;
    options.reuse = &reuse;
    const std::vector<RunResult> results = SweepRunner(2).run(cfgs, options);
    EXPECT_FALSE(results[1].haltedCleanly);
    for (const RunResult &r : results)
        EXPECT_TRUE(r.validated) << r.iqKind;
    EXPECT_EQ(reuse.goldenRuns, 2u);
}

TEST(SweepReuse, JobsBorrowTheSharedProgram)
{
    // Cores borrow their program; a temporary would dangle, so it must
    // not compile.
    static_assert(!std::is_constructible_v<OooCore, Program &&,
                                           const CoreParams &>);
    static_assert(!std::is_constructible_v<FunctionalCore, Program &&>);

    // Each job, run as SweepRunner runs it, reads the sweep's one
    // Program by address: in its core, and in the FunctionalCores its
    // warm-up and golden run build from the same reference.
    SweepShared shared;
    for (const SimConfig &cfg : fastForwardSweep({"swim", "gcc"})) {
        const Program &program = shared.program(cfg)->program;
        Simulator sim(cfg, &shared);
        EXPECT_EQ(&sim.program(), &program);
        EXPECT_EQ(&sim.core().prog(), &program);
        const FunctionalCore golden(sim.program());
        EXPECT_EQ(&golden.prog(), &program);
        const RunResult r = sim.run();
        EXPECT_TRUE(r.validated) << r.workload << " " << r.iqKind;
        EXPECT_EQ(&sim.core().prog(), &program);
    }
    const SweepShared::Counts reuse = shared.counts();
    EXPECT_EQ(reuse.programsBuilt, 2u);
    EXPECT_EQ(reuse.goldenRuns, 2u);
    EXPECT_EQ(reuse.warmUps, 2u);
}

TEST(SweepReuse, SharedInputsKeepResultsBitIdentical)
{
    // Each job alone (private program, golden and cold warm-up) against
    // the shared sweep.
    const std::vector<SimConfig> cfgs = fastForwardSweep({"swim", "gcc"});
    const std::vector<RunResult> shared = SweepRunner(2).run(cfgs);
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        SimConfig alone = cfgs[i];
        alone.ckptCache = nullptr;
        expectIdentical(runSim(alone), shared[i], i);
    }
}

TEST(SweepJson, EmitsEveryResultWithFields)
{
    SimConfig cfg = makeSegmentedConfig(32, 16, true, false, "swim");
    cfg.wl.iterations = 100;
    std::vector<RunResult> results = SweepRunner(1).run({cfg, cfg});

    std::ostringstream os;
    writeResultsJson(os, results);
    const std::string json = os.str();

    EXPECT_EQ(json.front(), '[');
    EXPECT_NE(json.find("\"workload\": \"swim\""), std::string::npos);
    EXPECT_NE(json.find("\"iq_kind\": \"segmented\""), std::string::npos);
    EXPECT_NE(json.find("\"ipc\":"), std::string::npos);
    EXPECT_NE(json.find("\"halted_cleanly\": true"), std::string::npos);
    // Two result objects.
    std::size_t count = 0;
    for (std::size_t pos = json.find("\"workload\"");
         pos != std::string::npos;
         pos = json.find("\"workload\"", pos + 1)) {
        ++count;
    }
    EXPECT_EQ(count, 2u);
}

TEST(SweepJson, EscapesStrings)
{
    RunResult r;
    r.workload = "we\"ird\\wl\n";
    r.iqKind = "ideal";
    std::ostringstream os;
    writeResultsJson(os, {r});
    EXPECT_NE(os.str().find("we\\\"ird\\\\wl\\n"), std::string::npos);
}

TEST(SweepJson, RoundTripsThroughStrictParser)
{
    SimConfig cfg = makeSegmentedConfig(32, 16, true, false, "swim");
    cfg.wl.iterations = 100;
    std::vector<RunResult> results = SweepRunner(1).run({cfg});

    std::ostringstream os;
    writeResultsJson(os, results);

    json::Value v = json::parse(os.str());
    ASSERT_TRUE(v.isArray());
    ASSERT_EQ(v.size(), 1u);
    const json::Value &r = v.at(std::size_t{0});
    EXPECT_EQ(r.at("workload").asString(), "swim");
    EXPECT_EQ(r.at("iq_kind").asString(), "segmented");
    EXPECT_DOUBLE_EQ(r.at("ipc").asNumber(), results[0].ipc);
    EXPECT_EQ(r.at("cycles").asNumber(),
              static_cast<double>(results[0].cycles));
    EXPECT_TRUE(r.at("halted_cleanly").asBool());
    EXPECT_EQ(r.at("audit_violations").asNumber(), 0.0);
}

TEST(SweepJson, NonFiniteRatesEmitNull)
{
    // A hand-built result with the undefined-rate fields left at NaN
    // (and one infinity for good measure) must still produce strictly
    // parseable JSON, with those fields serialised as null.
    RunResult r;
    r.workload = "empty";
    r.iqKind = "segmented";
    r.hmpAccuracy = std::nan("");
    r.hmpCoverage = std::nan("");
    r.ipc = std::numeric_limits<double>::infinity();

    std::ostringstream os;
    writeResultsJson(os, {r});
    const std::string text = os.str();
    EXPECT_EQ(text.find("nan"), std::string::npos);
    EXPECT_EQ(text.find("inf"), std::string::npos);

    json::Value v = json::parse(text);
    const json::Value &obj = v.at(std::size_t{0});
    EXPECT_TRUE(obj.at("hmp_accuracy").isNull());
    EXPECT_TRUE(obj.at("hmp_coverage").isNull());
    EXPECT_TRUE(obj.at("ipc").isNull());
    EXPECT_TRUE(obj.at("l1d_miss_rate").isNumber());
}

TEST(SweepJson, NoHmpRunEmitsNullAccuracy)
{
    // End-to-end regression for the original bug: with the HMP disabled
    // nothing is ever predicted, hmp_accuracy is undefined, and the old
    // emitter wrote a bare `nan` token no parser would accept.
    SimConfig cfg = makeSegmentedConfig(32, 16, false, false, "swim");
    cfg.wl.iterations = 100;
    std::vector<RunResult> results = SweepRunner(1).run({cfg});
    ASSERT_TRUE(std::isnan(results[0].hmpAccuracy));

    std::ostringstream os;
    writeResultsJson(os, results);
    json::Value v = json::parse(os.str());
    EXPECT_TRUE(v.at(std::size_t{0}).at("hmp_accuracy").isNull());
}

// ---------------------------------------------------------------------
// Sweep keys.

/** `base` with space-separated `key=value` settings applied. */
SimConfig
withSettings(SimConfig base, const std::string &settings)
{
    ConfigMap map;
    std::istringstream in(settings);
    std::string token;
    while (in >> token)
        EXPECT_TRUE(map.parseLine(token)) << token;
    base.apply(map);
    return base;
}

TEST(SweepKey, DeterministicAndSensitive)
{
    SimConfig a = makeSegmentedConfig(128, 64, true, true, "swim");
    EXPECT_EQ(sweepKey(a), sweepKey(a));

    SimConfig b = a;
    b.core.iq.numEntries = 256;
    EXPECT_NE(sweepKey(a), sweepKey(b));

    SimConfig c = a;
    c.workload = "gcc";
    EXPECT_NE(sweepKey(a), sweepKey(c));

    SimConfig d = a;
    d.wl.iterations = 999;
    EXPECT_NE(sweepKey(a), sweepKey(d));

    SimConfig e = a;
    e.core.iqKind = IqKind::Ideal;
    EXPECT_NE(sweepKey(a), sweepKey(e));
}

TEST(SweepKey, HostOnlySettingsExcluded)
{
    // Checkpoint caching, auditing and validation change how a result
    // is produced, never what it is: two configs that differ only there
    // are one job.
    SimConfig a = makeSegmentedConfig(128, 64, true, true, "swim");
    SimConfig b = a;
    b.ckptCache = std::make_shared<CheckpointCache>();
    b.audit = true;
    b.validate = false;
    EXPECT_EQ(sweepKey(a), sweepKey(b));
}

TEST(SweepKey, EveryResultChangingKeyIsInTheKey)
{
    // Keys that change how a result is produced, never what it is.
    const std::set<std::string> hostOnly = {
        "validate",        "audit",        "audit_panic",
        "watchdog_cycles", "deadline_sec",
    };
    // Two settings of every other key that simulate different machines.
    // A key one IQ kind or mode reads is set together with it.
    const std::map<std::string, std::pair<const char *, const char *>>
        changes = {
            {"iq", {"iq=segmented", "iq=ideal"}},
            {"iq_size", {"iq_size=128", "iq_size=256"}},
            {"seg_size", {"seg_size=16", "seg_size=32"}},
            {"chains", {"chains=32", "chains=64"}},
            {"hmp", {"hmp=0", "hmp=1"}},
            {"lrp", {"lrp=0", "lrp=1"}},
            {"pushdown", {"pushdown=0", "pushdown=1"}},
            {"bypass", {"bypass=0", "bypass=1"}},
            {"resize", {"resize=0", "resize=1"}},
            {"resize_interval",
             {"resize=1 resize_interval=1000",
              "resize=1 resize_interval=2000"}},
            {"issue_buffer",
             {"iq=prescheduled issue_buffer=8",
              "iq=prescheduled issue_buffer=16"}},
            {"line_width",
             {"iq=prescheduled line_width=4",
              "iq=prescheduled line_width=8"}},
            {"fifos", {"iq=fifo fifos=4", "iq=fifo fifos=8"}},
            {"depth", {"iq=fifo depth=4", "iq=fifo depth=8"}},
            {"wrong_path", {"wrong_path=0", "wrong_path=1"}},
            {"workload", {"workload=swim", "workload=gcc"}},
            {"iters", {"iters=100", "iters=200"}},
            {"seed", {"seed=1", "seed=2"}},
            {"scale", {"scale=1", "scale=2"}},
            {"max_cycles", {"max_cycles=1000", "max_cycles=2000"}},
            {"ff", {"ff=0", "ff=1000"}},
            {"fault_commit_stall",
             {"fault_commit_stall=0", "fault_commit_stall=500"}},
            {"fault_overpromote",
             {"fault_overpromote=0", "fault_overpromote=1"}},
        };

    const SimConfig base = makeSegmentedConfig(128, 64, true, true, "swim");
    for (const std::string &key : SimConfig::keys()) {
        if (hostOnly.count(key)) {
            EXPECT_EQ(sweepKey(withSettings(base, key + "=0")),
                      sweepKey(withSettings(base, key + "=1")))
                << key << " is host-only but moves the key";
            continue;
        }
        const auto it = changes.find(key);
        if (it == changes.end()) {
            ADD_FAILURE() << "config key '" << key
                          << "' is neither host-only nor in the key";
            continue;
        }
        EXPECT_NE(sweepKey(withSettings(base, it->second.first)),
                  sweepKey(withSettings(base, it->second.second)))
            << key << " changes the result but not the key";
    }
}

// Suite name kept from the lockstep-batching tests this check came from.
TEST(LockstepBatch, SweepKeyInvariantUnderHostSettings)
{
    // sweepKey() identifies *what* is simulated; the sweep's job count
    // describes *how*.  The key must not move when host settings
    // change, or one job run under two sweeps would count as two.
    SimConfig c = makeSegmentedConfig(64, 32, true, true, "swim");
    const std::string key = sweepKey(c);
    EXPECT_FALSE(key.empty());
    for (unsigned jobs : {0u, 1u, 7u}) {
        SweepRunner runner(jobs);
        EXPECT_EQ(sweepKey(c), key);
    }
    EXPECT_EQ(key.find("batch"), std::string::npos);
    EXPECT_EQ(key.find("jobs"), std::string::npos);
}

} // namespace
