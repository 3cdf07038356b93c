/**
 * @file
 * End-to-end regression suite of the segmented-IQ engine.
 *
 * Two layers, both against committed snapshots in tests/golden/:
 *  - engine verdicts (segmented_engine.json): for every workload at
 *    64-, 256- and 512-entry queues, with the invariant auditor on, the
 *    cycle and instruction counts and the FNV-64 digests of the core
 *    stats tree and of the architected result JSON.  The snapshot was
 *    recorded from the object-per-entry reference engine this class
 *    carried beside the slot-pool engine until the two were merged, so
 *    it keeps that engine's verdicts as a fixed oracle;
 *  - the deterministic perf proxy (work_proxy.json): the exact
 *    iq.work.* counters at the pinned 256-entry configuration.
 *
 * Regenerate both after an intentional scheduler change with:
 *
 *     ./build/tests/test_segmented_engine --update-goldens
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>

#include "common/json.hh"
#include "common/serialize.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "workload/workloads.hh"

using namespace sciq;

namespace {

bool g_update = false;

const unsigned kSizes[] = {64u, 256u, 512u};

/** The pinned configuration (quick mode). */
SimConfig
engineConfig(const std::string &workload, unsigned iq_size, bool audit)
{
    SimConfig cfg = makeSegmentedConfig(iq_size, 64, true, true, workload);
    cfg.wl.iterations = 300;
    cfg.fastForward = 1500;
    cfg.validate = true;
    cfg.audit = audit;
    return cfg;
}

std::string
statsDump(Simulator &sim)
{
    std::ostringstream os;
    sim.core().statGroup().dumpJson(os);
    return os.str();
}

/**
 * Serialize one result with every host-dependent field zeroed, and the
 * iq.work.* counters too: they measure host effort, which differs from
 * the engine the snapshot was recorded with, and work_proxy.json pins
 * them separately.
 */
std::string
scrubbedJson(RunResult r)
{
    r.hostSeconds = 0.0;
    r.hostKcyclesPerSec = 0.0;
    r.hostKinstsPerSec = 0.0;
    r.warmSeconds = 0.0;
    r.warmInstsPerSec = 0.0;
    r.ckptRestored = false;
    r.outcome.message.clear();
    r.iqSignalDeliveries = 0;
    r.iqPlanCalls = 0;
    r.iqSegmentsScanned = 0;
    r.iqLaneWordsTouched = 0;
    std::ostringstream os;
    writeResultsJson(os, {r});
    return os.str();
}

std::string
fnvHex(const std::string &s)
{
    serial::Fnv64 h;
    h.update(std::string_view(s));
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h.digest()));
    return buf;
}

std::string
goldenPath(const char *name)
{
    return std::string(SCIQ_GOLDEN_DIR) + "/" + name;
}

/** Parse a committed snapshot, or fail with how to regenerate it. */
json::Value
loadGolden(const char *name)
{
    try {
        return json::parseFile(goldenPath(name));
    } catch (const std::exception &e) {
        ADD_FAILURE() << e.what() << "\n(regenerate with: "
                      << "test_segmented_engine --update-goldens)";
        return json::Value();
    }
}

/**
 * Rewrite a snapshot with the rows collected in update mode, merged
 * over the committed ones so that a filtered run (one workload) does
 * not drop the others.  `row` renders one workload's body.
 */
template <class Row>
void
writeGolden(const char *name, const std::string &config,
            const std::map<std::string, Row> &collected,
            const std::function<Row(const json::Value &)> &parse,
            const std::function<void(std::ostream &, const Row &)> &row)
{
    if (collected.empty())
        return;
    std::map<std::string, Row> merged;
    try {
        json::Value root = json::parseFile(goldenPath(name));
        for (const std::string &wl : workloadNames()) {
            if (root.at("workloads").contains(wl))
                merged[wl] = parse(root.at("workloads").at(wl));
        }
    } catch (...) {
        // No readable committed file yet: write what we collected.
    }
    for (const auto &[wl, r] : collected)
        merged[wl] = r;

    std::ofstream out(goldenPath(name));
    if (!out) {
        std::fprintf(stderr, "ERROR: cannot write %s\n",
                     goldenPath(name).c_str());
        return;
    }
    out << "{\n  \"config\": " << config << ",\n  \"workloads\": {\n";
    std::size_t i = 0;
    for (const auto &[wl, r] : merged) {
        out << "    \"" << wl << "\": {\n";
        row(out, r);
        out << "    }" << (++i == merged.size() ? "\n" : ",\n");
    }
    out << "  }\n}\n";
    std::fprintf(stderr, "wrote %s\n", goldenPath(name).c_str());
}

// ---------------------------------------------------------------------
// Engine verdicts: the recorded reference-engine results, reproduced.

/** One size's recorded verdict. */
struct Verdict
{
    std::uint64_t cycles = 0, insts = 0;
    std::string statsFnv, resultFnv;
};
using Verdicts = std::map<unsigned, Verdict>;

std::map<std::string, Verdicts> g_verdicts;

Verdicts
verdictsFromJson(const json::Value &e)
{
    Verdicts v;
    for (unsigned size : kSizes) {
        const std::string key = std::to_string(size);
        if (!e.contains(key))
            continue;
        const json::Value &s = e.at(key);
        v[size] = {static_cast<std::uint64_t>(s.at("cycles").asNumber()),
                   static_cast<std::uint64_t>(s.at("insts").asNumber()),
                   s.at("stats_fnv64").asString(),
                   s.at("result_fnv64").asString()};
    }
    return v;
}

void
writeVerdictRows(std::ostream &out, const Verdicts &v)
{
    std::size_t i = 0;
    for (const auto &[size, s] : v) {
        out << "      \"" << size << "\": {\"cycles\": " << s.cycles
            << ", \"insts\": " << s.insts << ", \"stats_fnv64\": \""
            << s.statsFnv << "\", \"result_fnv64\": \"" << s.resultFnv
            << "\"}" << (++i == v.size() ? "\n" : ",\n");
    }
}

class IqSoaDifferential : public ::testing::TestWithParam<std::string>
{
};

TEST_P(IqSoaDifferential, StatsTreesByteIdenticalWithAuditOn)
{
    const std::string workload = GetParam();
    json::Value golden;
    if (!g_update) {
        golden = loadGolden("segmented_engine.json");
        ASSERT_TRUE(golden.contains("workloads"));
        ASSERT_TRUE(golden.at("workloads").contains(workload))
            << "no recorded verdicts for " << workload;
    }
    for (unsigned size : kSizes) {
        Simulator sim(engineConfig(workload, size, true));
        RunResult r = sim.run();
        ASSERT_TRUE(r.haltedCleanly) << size;
        ASSERT_TRUE(r.validated) << size;
        EXPECT_EQ(r.auditViolations, 0u) << size;

        // The whole core stats tree — caches, predictors, IQ, LSQ,
        // ROB, audit counters — and the architected sweep output.
        const Verdict got{r.cycles, r.insts, fnvHex(statsDump(sim)),
                          fnvHex(scrubbedJson(r))};
        if (g_update) {
            g_verdicts[workload][size] = got;
            continue;
        }
        const json::Value &want =
            golden.at("workloads").at(workload).at(std::to_string(size));
        EXPECT_EQ(want.at("cycles").asNumber(),
                  static_cast<double>(got.cycles))
            << "iq_size " << size;
        EXPECT_EQ(want.at("insts").asNumber(), static_cast<double>(got.insts))
            << "iq_size " << size;
        EXPECT_EQ(want.at("stats_fnv64").asString(), got.statsFnv)
            << "iq_size " << size;
        EXPECT_EQ(want.at("result_fnv64").asString(), got.resultFnv)
            << "iq_size " << size;
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, IqSoaDifferential,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

// ---------------------------------------------------------------------
// Deterministic perf proxy: the exact counters at the pinned
// configuration are committed.

struct WorkPoint
{
    std::uint64_t sig = 0, plan = 0, scanned = 0, words = 0;
};

std::map<std::string, WorkPoint> g_work;

WorkPoint
workFromJson(const json::Value &e)
{
    WorkPoint w;
    w.sig = static_cast<std::uint64_t>(e.at("signal_deliveries").asNumber());
    w.plan = static_cast<std::uint64_t>(e.at("plan_calls").asNumber());
    w.scanned =
        static_cast<std::uint64_t>(e.at("segments_scanned").asNumber());
    w.words =
        static_cast<std::uint64_t>(e.at("lane_words_touched").asNumber());
    return w;
}

void
writeWorkRow(std::ostream &out, const WorkPoint &w)
{
    out << "      \"soa\": {\"signal_deliveries\": " << w.sig
        << ", \"plan_calls\": " << w.plan
        << ", \"segments_scanned\": " << w.scanned
        << ", \"lane_words_touched\": " << w.words << "}\n";
}

class IqSoaWorkProxy : public ::testing::TestWithParam<std::string>
{
};

TEST_P(IqSoaWorkProxy, SoaReducesWorkAndMatchesCommittedCounters)
{
    const std::string workload = GetParam();
    const RunResult r = runSim(engineConfig(workload, 256, false));
    ASSERT_TRUE(r.validated);
    const WorkPoint w{r.iqSignalDeliveries, r.iqPlanCalls,
                      r.iqSegmentsScanned, r.iqLaneWordsTouched};

    if (g_update) {
        // Collected here, written as one file after RUN_ALL_TESTS (so
        // running the full suite regenerates every workload at once).
        g_work[workload] = w;
        return;
    }

    const json::Value golden = loadGolden("work_proxy.json");
    ASSERT_TRUE(golden.contains("workloads"));
    ASSERT_TRUE(golden.at("workloads").contains(workload))
        << "no committed counters for " << workload;
    const json::Value &e = golden.at("workloads").at(workload).at("soa");
    EXPECT_EQ(e.at("signal_deliveries").asNumber(),
              static_cast<double>(w.sig));
    EXPECT_EQ(e.at("plan_calls").asNumber(), static_cast<double>(w.plan));
    EXPECT_EQ(e.at("segments_scanned").asNumber(),
              static_cast<double>(w.scanned));
    EXPECT_EQ(e.at("lane_words_touched").asNumber(),
              static_cast<double>(w.words));
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, IqSoaWorkProxy,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

} // namespace

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--update-goldens")
            g_update = true;
    }
    const int rc = RUN_ALL_TESTS();
    if (g_update && rc == 0) {
        writeGolden<Verdicts>(
            "segmented_engine.json",
            "{\"iterations\": 300, \"fast_forward\": 1500, \"audit\": true}",
            g_verdicts, verdictsFromJson, writeVerdictRows);
        writeGolden<WorkPoint>(
            "work_proxy.json",
            "{\"iq_size\": 256, \"iterations\": 300, \"fast_forward\": 1500}",
            g_work,
            [](const json::Value &e) { return workFromJson(e.at("soa")); },
            writeWorkRow);
    }
    return rc;
}
