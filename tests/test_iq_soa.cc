/**
 * @file
 * Differential coverage of the data-oriented (SoA) segmented-IQ engine
 * against the reference engine (iq_soa=0), which stays in the tree as
 * the executable specification.
 *
 * Four layers:
 *  - end-to-end differential: byte-identical core stats trees between
 *    the two engines for every workload at 64-, 256- and 512-entry
 *    queues, with the invariant auditor enabled on both;
 *  - checkpoint interchange: warm-state blobs are engine-independent,
 *    byte for byte, and a checkpoint produced under one engine restores
 *    under the other with no stat drift;
 *  - sweep-JSON equivalence across engines: a SweepRunner sweep emits
 *    the same JSON for both, work counters excluded;
 *  - lane-level torture at segment boundaries: both engines driven
 *    side by side through tiny segments with chain signals, suspends,
 *    squashes and deadlock recovery, comparing membership state and
 *    issue order cycle by cycle.
 *
 * Plus the deterministic perf proxy: the iq.work.* counters must
 * strictly shrink under the SoA engine, and their exact values at the
 * pinned quick-mode configuration are committed in
 * tests/golden/work_proxy.json.  Regenerate after an intentional
 * scheduler change with:
 *
 *     ./build/tests/test_iq_soa --update-work-proxy
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "branch/hit_miss_predictor.hh"
#include "branch/left_right_predictor.hh"
#include "common/json.hh"
#include "iq/segmented_iq.hh"
#include "iq_harness.hh"
#include "isa/functional_core.hh"
#include "sim/checkpoint.hh"
#include "sim/fast_forward.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "workload/workloads.hh"

using namespace sciq;
using namespace sciq::test;

namespace {

bool g_update_proxy = false;

/** The pinned differential configuration (quick mode). */
SimConfig
soaConfig(const std::string &workload, unsigned iq_size, bool soa,
          bool audit)
{
    SimConfig cfg = makeSegmentedConfig(iq_size, 64, true, true, workload);
    cfg.wl.iterations = 300;
    cfg.fastForward = 1500;
    cfg.validate = true;
    cfg.audit = audit;
    cfg.core.iq.soaLayout = soa;
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
 * iq.work.* counters too: they are deterministic but engine-specific,
 * and every caller compares across engines.
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

// ---------------------------------------------------------------------
// End-to-end differential: engines are observationally identical.

class IqSoaDifferential : public ::testing::TestWithParam<std::string>
{
};

TEST_P(IqSoaDifferential, StatsTreesByteIdenticalWithAuditOn)
{
    const std::string workload = GetParam();
    for (unsigned size : {64u, 256u, 512u}) {
        Simulator ref(soaConfig(workload, size, false, true));
        RunResult r0 = ref.run();
        ASSERT_TRUE(r0.haltedCleanly) << size;
        ASSERT_TRUE(r0.validated) << size;
        EXPECT_EQ(r0.auditViolations, 0u) << size;

        Simulator soa(soaConfig(workload, size, true, true));
        RunResult r1 = soa.run();
        ASSERT_TRUE(r1.haltedCleanly) << size;
        ASSERT_TRUE(r1.validated) << size;
        EXPECT_EQ(r1.auditViolations, 0u) << size;

        EXPECT_EQ(r0.cycles, r1.cycles) << size;
        EXPECT_EQ(r0.insts, r1.insts) << size;
        // The whole core stats tree — caches, predictors, IQ, LSQ,
        // ROB, audit counters — byte for byte.
        EXPECT_EQ(statsDump(ref), statsDump(soa)) << "iq_size " << size;
        // Architected sweep output too (work counters excluded: they
        // measure host effort, which is exactly what the SoA engine
        // changes).
        EXPECT_EQ(scrubbedJson(r0), scrubbedJson(r1))
            << "iq_size " << size;
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, IqSoaDifferential,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

// ---------------------------------------------------------------------
// Deterministic perf proxy: SoA must do strictly less host work, and
// the exact counters at the pinned configuration are committed.

struct WorkPoint
{
    std::uint64_t sig = 0, plan = 0, scanned = 0, words = 0;
};

WorkPoint
workOf(const RunResult &r)
{
    return {r.iqSignalDeliveries, r.iqPlanCalls, r.iqSegmentsScanned,
            r.iqLaneWordsTouched};
}

std::string
proxyPath()
{
    return std::string(SCIQ_GOLDEN_DIR) + "/work_proxy.json";
}

/** Per-workload {reference, soa} counters gathered in update mode. */
std::map<std::string, std::pair<WorkPoint, WorkPoint>> g_collected;

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
writeProxyFile()
{
    // Merge with the committed file so a filtered update run (a single
    // workload) does not drop the others.
    std::map<std::string, std::pair<WorkPoint, WorkPoint>> merged;
    try {
        json::Value root = json::parseFile(proxyPath());
        for (const std::string &wl : workloadNames()) {
            if (root.at("workloads").contains(wl)) {
                const json::Value &e = root.at("workloads").at(wl);
                merged[wl] = {workFromJson(e.at("reference")),
                              workFromJson(e.at("soa"))};
            }
        }
    } catch (...) {
        // No readable committed file yet: write what we collected.
    }
    for (const auto &[wl, pair] : g_collected)
        merged[wl] = pair;

    std::ofstream out(proxyPath());
    if (!out) {
        std::fprintf(stderr, "ERROR: cannot write %s\n",
                     proxyPath().c_str());
        return;
    }
    auto engine = [&](const WorkPoint &w) {
        out << "{\"signal_deliveries\": " << w.sig
            << ", \"plan_calls\": " << w.plan
            << ", \"segments_scanned\": " << w.scanned
            << ", \"lane_words_touched\": " << w.words << "}";
    };
    out << "{\n  \"config\": {\"iq_size\": 256, \"iterations\": 300, "
           "\"fast_forward\": 1500},\n  \"workloads\": {\n";
    std::size_t i = 0;
    for (const auto &[wl, pair] : merged) {
        out << "    \"" << wl << "\": {\n      \"reference\": ";
        engine(pair.first);
        out << ",\n      \"soa\": ";
        engine(pair.second);
        out << "\n    }" << (++i == merged.size() ? "\n" : ",\n");
    }
    out << "  }\n}\n";
    std::fprintf(stderr, "wrote %s\n", proxyPath().c_str());
}

class IqSoaWorkProxy : public ::testing::TestWithParam<std::string>
{
};

TEST_P(IqSoaWorkProxy, SoaReducesWorkAndMatchesCommittedCounters)
{
    const std::string workload = GetParam();
    const unsigned size = 256;
    RunResult r0 = runSim(soaConfig(workload, size, false, false));
    RunResult r1 = runSim(soaConfig(workload, size, true, false));
    ASSERT_TRUE(r0.validated);
    ASSERT_TRUE(r1.validated);
    EXPECT_EQ(r0.cycles, r1.cycles);
    const WorkPoint ref = workOf(r0);
    const WorkPoint soa = workOf(r1);

    // The tentpole's whole point: strictly less host work per run.
    EXPECT_LT(soa.sig, ref.sig);
    EXPECT_LT(soa.plan, ref.plan);
    EXPECT_LT(soa.scanned, ref.scanned);
    EXPECT_LT(soa.words, ref.words);

    if (g_update_proxy) {
        // Collected here, written as one file after RUN_ALL_TESTS (so
        // running the full suite regenerates every workload at once).
        g_collected[workload] = {ref, soa};
        return;
    }

    json::Value golden;
    try {
        golden = json::parseFile(proxyPath());
    } catch (const json::ParseError &e) {
        FAIL() << e.what()
               << "\n(regenerate with: test_iq_soa --update-work-proxy)";
    }
    ASSERT_TRUE(golden.at("workloads").contains(workload))
        << "no committed counters for " << workload
        << " (regenerate with --update-work-proxy)";
    const json::Value &entry = golden.at("workloads").at(workload);
    auto check = [&](const char *eng, const WorkPoint &w) {
        const json::Value &e = entry.at(eng);
        EXPECT_EQ(e.at("signal_deliveries").asNumber(),
                  static_cast<double>(w.sig))
            << eng;
        EXPECT_EQ(e.at("plan_calls").asNumber(),
                  static_cast<double>(w.plan))
            << eng;
        EXPECT_EQ(e.at("segments_scanned").asNumber(),
                  static_cast<double>(w.scanned))
            << eng;
        EXPECT_EQ(e.at("lane_words_touched").asNumber(),
                  static_cast<double>(w.words))
            << eng;
    };
    check("reference", ref);
    check("soa", soa);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, IqSoaWorkProxy,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

/** The reduction must hold at the small queue size too. */
TEST(IqSoaWork, SoaReducesWorkAtSmallQueue)
{
    for (const std::string &wl : workloadNames()) {
        RunResult r0 = runSim(soaConfig(wl, 64, false, false));
        RunResult r1 = runSim(soaConfig(wl, 64, true, false));
        ASSERT_TRUE(r0.validated) << wl;
        ASSERT_TRUE(r1.validated) << wl;
        EXPECT_EQ(r0.cycles, r1.cycles) << wl;
        EXPECT_LT(r1.iqSignalDeliveries, r0.iqSignalDeliveries) << wl;
        EXPECT_LT(r1.iqPlanCalls, r0.iqPlanCalls) << wl;
        EXPECT_LT(r1.iqLaneWordsTouched, r0.iqLaneWordsTouched) << wl;
        EXPECT_LE(r1.iqSegmentsScanned, r0.iqSegmentsScanned) << wl;
    }
}

// ---------------------------------------------------------------------
// Checkpoint interchange.

TEST(IqSoaCheckpoint, WarmBlobsAreEngineIndependent)
{
    for (const std::string &wl : {std::string("swim"), std::string("vortex")}) {
        SimConfig ref_cfg = soaConfig(wl, 256, false, false);
        SimConfig soa_cfg = soaConfig(wl, 256, true, false);
        Program prog = buildWorkload(wl, ref_cfg.wl);

        FunctionalCore golden0(prog);
        OooCore core0(prog, ref_cfg.core);
        FastForwardStats ff0 = fastForward(golden0, core0, ref_cfg.fastForward);
        const std::string blob0 = saveCheckpoint(ref_cfg, golden0, core0, ff0);

        FunctionalCore golden1(prog);
        OooCore core1(prog, soa_cfg.core);
        FastForwardStats ff1 = fastForward(golden1, core1, soa_cfg.fastForward);
        const std::string blob1 = saveCheckpoint(soa_cfg, golden1, core1, ff1);

        EXPECT_EQ(blob0, blob1) << wl;
    }
}

TEST(IqSoaCheckpoint, RestoreAcrossEnginesMatchesColdBitForBit)
{
    // The reference engine produces the warm checkpoint; the SoA engine
    // restores it.  The restored run must match a cold SoA run byte for
    // byte — warm state carries no engine fingerprint.
    SimConfig ref_cfg = soaConfig("mgrid", 256, false, false);
    SimConfig soa_cfg = soaConfig("mgrid", 256, true, false);
    auto cache = std::make_shared<CheckpointCache>();  // memory-only
    ref_cfg.ckptCache = cache;
    soa_cfg.ckptCache = cache;

    Simulator producer(ref_cfg);
    RunResult first = producer.run();
    ASSERT_TRUE(first.validated);
    EXPECT_FALSE(first.ckptRestored);

    Simulator restored(soa_cfg);
    RunResult warm = restored.run();
    ASSERT_TRUE(warm.validated);
    EXPECT_TRUE(warm.ckptRestored);

    Simulator cold(soaConfig("mgrid", 256, true, false));
    RunResult coldR = cold.run();
    ASSERT_TRUE(coldR.validated);

    EXPECT_EQ(coldR.cycles, warm.cycles);
    EXPECT_EQ(coldR.insts, warm.insts);
    EXPECT_EQ(statsDump(cold), statsDump(restored));
}

// ---------------------------------------------------------------------
// Sweep JSON: the engines agree through the SweepRunner path too.

TEST(IqSoaSweep, SweepJsonIdenticalAcrossEngines)
{
    std::vector<SimConfig> cfgs;
    for (const std::string &wl : workloadNames()) {
        for (unsigned size : {64u, 256u}) {
            for (bool soa : {false, true}) {
                SimConfig c = makeSegmentedConfig(size, 64, true, true, wl);
                c.wl.iterations = 120;
                c.core.iq.soaLayout = soa;
                cfgs.push_back(c);
            }
        }
    }

    const std::vector<RunResult> results = SweepRunner(1).run(cfgs);
    for (const RunResult &r : results)
        ASSERT_TRUE(r.outcome.ok()) << r.outcome.message;

    // Adjacent pairs are (reference, soa) of the same point: identical
    // architected output, work counters excluded.
    for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
        EXPECT_EQ(scrubbedJson(results[i]), scrubbedJson(results[i + 1]))
            << results[i].workload << " size " << results[i].iqSize;
    }
}

// ---------------------------------------------------------------------
// Lane-level torture at segment boundaries: drive both engines in
// side by side and compare every observable after every step.

/** One engine instance with its own register/FU universe. */
struct Rig
{
    Scoreboard scoreboard{128};
    FuPool fu;
    HitMissPredictor hmp{64};
    LeftRightPredictor lrp{64};
    std::unique_ptr<SegmentedIq> iq;

    Rig(IqParams params, bool soa)
    {
        params.soaLayout = soa;
        iq = std::make_unique<SegmentedIq>(params, scoreboard, fu, &hmp,
                                           &lrp);
    }
};

/**
 * Drives the reference and SoA engines through an identical script and
 * compares occupancy, chain usage, per-instruction membership state and
 * issue order after every step.
 */
class DualRig
{
  public:
    explicit DualRig(const IqParams &params)
        : ref_(params, false), soa_(params, true)
    {
    }

    /** Dispatch the same instruction into both engines (if accepted). */
    bool
    dispatch(SeqNum seq, Opcode op, RegIndex rd = kInvalidReg,
             RegIndex rs1 = kInvalidReg, RegIndex rs2 = kInvalidReg)
    {
        DynInstPtr a = makeInst(seq, op, rd, rs1, rs2);
        DynInstPtr b = makeInst(seq, op, rd, rs1, rs2);
        const bool can_a = ref_.iq->canInsert(a);
        const bool can_b = soa_.iq->canInsert(b);
        EXPECT_EQ(can_a, can_b) << "canInsert disagrees, seq " << seq;
        if (!can_a || !can_b)
            return false;
        insertInto(ref_, a);
        insertInto(soa_, b);
        live_[seq] = {a, b};
        compare("dispatch", seq);
        return true;
    }

    /** One issue round with an issue budget; orders must match. */
    std::vector<SeqNum>
    issue(unsigned budget, bool complete = true)
    {
        std::vector<SeqNum> got_a = issueOn(ref_, budget, complete);
        std::vector<SeqNum> got_b = issueOn(soa_, budget, complete);
        EXPECT_EQ(got_a, got_b) << "issue order diverged at cycle "
                                << cycle_;
        for (SeqNum s : got_a)
            live_.erase(s);
        compare("issue", 0);
        return got_a;
    }

    void
    tick(bool busy = true)
    {
        ++cycle_;
        ref_.iq->tick(cycle_, busy);
        soa_.iq->tick(cycle_, busy);
        compare("tick", 0);
    }

    void
    loadMiss(SeqNum seq)
    {
        auto it = issued_.find(seq);
        ASSERT_NE(it, issued_.end());
        ref_.iq->onLoadMiss(it->second.first, cycle_);
        soa_.iq->onLoadMiss(it->second.second, cycle_);
        compare("loadMiss", seq);
    }

    void
    loadComplete(SeqNum seq, bool writeback = true)
    {
        auto it = issued_.find(seq);
        ASSERT_NE(it, issued_.end());
        ref_.iq->onLoadComplete(it->second.first, cycle_);
        soa_.iq->onLoadComplete(it->second.second, cycle_);
        if (writeback) {
            setReady(it->second.first->physDst);
            ref_.iq->onWriteback(it->second.first, cycle_);
            soa_.iq->onWriteback(it->second.second, cycle_);
        }
        compare("loadComplete", seq);
    }

    /** Squash everything younger than `keep` (youngest first). */
    void
    squash(SeqNum keep)
    {
        std::vector<SeqNum> doomed;
        for (const auto &[seq, pair] : live_) {
            if (seq > keep)
                doomed.push_back(seq);
        }
        for (auto it = doomed.rbegin(); it != doomed.rend(); ++it) {
            ref_.iq->onSquashInst(live_[*it].first);
            soa_.iq->onSquashInst(live_[*it].second);
        }
        ref_.iq->squash(keep);
        soa_.iq->squash(keep);
        for (SeqNum s : doomed)
            live_.erase(s);
        compare("squash", keep);
    }

    void
    setReady(RegIndex r)
    {
        if (r == kInvalidReg)
            return;
        ref_.scoreboard.setReady(r);
        soa_.scoreboard.setReady(r);
    }

    /** Model an outstanding producer outside the queue. */
    void
    clearReady(RegIndex r)
    {
        ref_.scoreboard.clearReady(r);
        soa_.scoreboard.clearReady(r);
    }

    /** Tick/issue until `seq` issues (it must, within the bound). */
    void
    issueUntil(SeqNum seq, bool complete, unsigned max_cycles = 30)
    {
        for (unsigned i = 0; i < max_cycles; ++i) {
            std::vector<SeqNum> got = issue(1, complete);
            if (!got.empty() && got.front() == seq)
                return;
            EXPECT_TRUE(got.empty()) << "unexpected issue of "
                                     << got.front();
            tick();
        }
        FAIL() << "seq " << seq << " never issued";
    }

    std::size_t occupancy() const { return ref_.iq->occupancy(); }
    std::size_t chainsInUse() const { return ref_.iq->chainsInUse(); }

    /** Segment of a resident instruction (both engines agree). */
    int
    segmentOf(SeqNum seq)
    {
        return ref_.iq->debugSegment(live_.at(seq).first);
    }

    /** Effective delay of a resident instruction (both engines agree). */
    int
    delayOf(SeqNum seq)
    {
        return ref_.iq->debugEffectiveDelay(live_.at(seq).first);
    }

    /** Chain wire an instruction was given as head at dispatch. */
    ChainId
    headedChain(SeqNum seq) const
    {
        const auto it = live_.find(seq);
        const auto &inst = it != live_.end() ? it->second.first
                                             : issued_.at(seq).first;
        return inst->seg.headedChain;
    }
    Cycle cycle() const { return cycle_; }

    /** Full observable comparison between the two engines. */
    void
    compare(const char *when, SeqNum seq)
    {
        SCOPED_TRACE(std::string(when) + " seq " + std::to_string(seq) +
                     " cycle " + std::to_string(cycle_));
        ASSERT_EQ(ref_.iq->occupancy(), soa_.iq->occupancy());
        ASSERT_EQ(ref_.iq->chainsInUse(), soa_.iq->chainsInUse());
        for (unsigned k = 0; k < ref_.iq->numSegments(); ++k) {
            ASSERT_EQ(ref_.iq->segmentOccupancy(k),
                      soa_.iq->segmentOccupancy(k))
                << "segment " << k;
        }
        for (const auto &[s, pair] : live_) {
            const auto &[a, b] = pair;
            ASSERT_EQ(ref_.iq->debugSegment(a), soa_.iq->debugSegment(b))
                << "seq " << s;
            ASSERT_EQ(ref_.iq->debugEffectiveDelay(a),
                      soa_.iq->debugEffectiveDelay(b))
                << "seq " << s;
            ASSERT_EQ(a->seg.numMemberships, b->seg.numMemberships)
                << "seq " << s;
            for (int m = 0; m < a->seg.numMemberships; ++m) {
                const ChainMembership ma = ref_.iq->debugMembership(a, m);
                const ChainMembership mb = soa_.iq->debugMembership(b, m);
                ASSERT_EQ(ma.chain, mb.chain) << "seq " << s << " m " << m;
                ASSERT_EQ(ma.gen, mb.gen) << "seq " << s << " m " << m;
                ASSERT_EQ(ma.delay, mb.delay) << "seq " << s << " m " << m;
                ASSERT_EQ(ma.selfTimed, mb.selfTimed)
                    << "seq " << s << " m " << m;
                ASSERT_EQ(ma.suspended, mb.suspended)
                    << "seq " << s << " m " << m;
            }
        }
    }

    /** Tick both engines until empty (or a bound), issuing greedily. */
    void
    drain(unsigned max_cycles = 200)
    {
        for (unsigned i = 0; i < max_cycles && occupancy() > 0; ++i) {
            issue(8);
            tick();
        }
        EXPECT_EQ(occupancy(), 0u) << "failed to drain";
    }

  private:
    void
    insertInto(Rig &rig, const DynInstPtr &inst)
    {
        if (inst->physDst != kInvalidReg)
            rig.scoreboard.clearReady(inst->physDst);
        rig.iq->insert(inst, cycle_);
    }

    std::vector<SeqNum>
    issueOn(Rig &rig, unsigned budget, bool complete)
    {
        std::vector<SeqNum> got;
        rig.iq->issueSelect(cycle_, [&](const DynInstPtr &inst) {
            if (got.size() >= budget)
                return false;
            got.push_back(inst->seq);
            inst->issued = true;
            if (complete && inst->physDst != kInvalidReg)
                rig.scoreboard.setReady(inst->physDst);
            // Record for load miss/complete scripting (live_ still
            // holds the pair; issue() erases it after both engines).
            auto it = live_.find(inst->seq);
            if (it != live_.end())
                issued_[inst->seq] = it->second;
            return true;
        });
        return got;
    }

    Rig ref_;
    Rig soa_;
    Cycle cycle_ = 0;
    std::map<SeqNum, std::pair<DynInstPtr, DynInstPtr>> live_;
    std::map<SeqNum, std::pair<DynInstPtr, DynInstPtr>> issued_;
};

IqParams
tinyParams(unsigned entries, unsigned seg_size)
{
    IqParams p;
    p.numEntries = entries;
    p.segmentSize = seg_size;
    p.issueWidth = 4;
    p.maxChains = -1;
    p.enableBypass = false;  // keep everything flowing through segments
    p.enablePushdown = true;
    p.predictedLoadLatency = 4;
    return p;
}

TEST(IqSoaTorture, DeliveryAcrossManyTinySegments)
{
    // 6 two-entry segments: every chain-wire signal crosses several
    // segment boundaries and every promotion straddles a lane-word
    // boundary.  A never-ready load heads the chain; dependents fill
    // the upper segments.
    DualRig rig(tinyParams(12, 2));
    rig.clearReady(intReg(1));  // the head's address is outstanding
    ASSERT_TRUE(rig.dispatch(1, Opcode::LD, intReg(2), intReg(1)));
    for (SeqNum s = 2; s <= 9; ++s) {
        rig.dispatch(s, Opcode::ADD, intReg(10 + s), intReg(2), intReg(3));
        rig.tick();
    }
    for (int i = 0; i < 10; ++i) {
        rig.issue(2);
        rig.tick();
    }
    // Release the head: the Assert signal walks up through all six
    // segments while dependents promote down past each boundary.
    rig.setReady(intReg(1));
    rig.setReady(intReg(3));
    rig.drain();
}

TEST(IqSoaTorture, SuspendResumeStraddlingBoundaries)
{
    DualRig rig(tinyParams(12, 2));
    ASSERT_TRUE(rig.dispatch(1, Opcode::LD, intReg(2), intReg(1)));
    rig.setReady(intReg(1));
    for (SeqNum s = 2; s <= 7; ++s)
        rig.dispatch(s, Opcode::ADD, intReg(10 + s), intReg(2), intReg(3));
    rig.setReady(intReg(3));

    // Issue the load (once it promotes into segment 0), then miss: the
    // Suspend signal chases the earlier Assert up the segment stack
    // while dependents are mid-promotion.
    rig.issueUntil(1, /*complete=*/false);
    rig.tick();
    rig.loadMiss(1);
    for (int i = 0; i < 6; ++i) {
        rig.issue(2);
        rig.tick();
    }
    // Data returns: Resume propagates and the queue drains.
    rig.loadComplete(1);
    rig.tick();
    rig.drain();
}

TEST(IqSoaTorture, SquashMidDelivery)
{
    DualRig rig(tinyParams(12, 2));
    ASSERT_TRUE(rig.dispatch(1, Opcode::LD, intReg(2), intReg(1)));
    ASSERT_TRUE(rig.dispatch(2, Opcode::LD, intReg(3), intReg(1)));
    for (SeqNum s = 3; s <= 8; ++s)
        rig.dispatch(s, Opcode::ADD, intReg(10 + s), intReg(2), intReg(3));
    rig.tick();
    rig.tick();

    // Squash the younger half while chain signals are still in flight,
    // then re-fill the freed slots with a fresh dependence pattern.
    rig.squash(4);
    for (SeqNum s = 9; s <= 12; ++s)
        rig.dispatch(s, Opcode::ADD, intReg(20 + (s - 9)), intReg(3),
                     intReg(4));
    rig.tick();
    rig.setReady(intReg(1));
    rig.setReady(intReg(3));
    rig.setReady(intReg(4));
    rig.drain();
}

TEST(IqSoaTorture, MemberPromotedMidFlightSeesSignalEarlier)
{
    // 8 two-entry segments, dispatch always into the top one.  The head
    // is a load whose address never arrives: it promotes one segment a
    // cycle down to the issue buffer and then stops, so its last
    // Asserts are still climbing the wire when it goes quiet.  Its
    // dependents dispatch while it sits 5 segments below them and keep
    // promoting afterwards; each move brings the next in-flight signal
    // a cycle closer, so the delivery pass must not keep skipping the
    // chain until the wake cycle computed at the dependent's old
    // segment.
    DualRig rig(tinyParams(16, 2));
    rig.clearReady(intReg(1));
    ASSERT_TRUE(rig.dispatch(1, Opcode::LD, intReg(2), intReg(1)));
    for (int i = 0; i < 5; ++i)
        rig.tick();
    ASSERT_EQ(rig.segmentOf(1), 2);
    ASSERT_TRUE(rig.dispatch(2, Opcode::ADD, intReg(10), intReg(2),
                             intReg(3)));
    rig.tick();
    ASSERT_TRUE(rig.dispatch(3, Opcode::ADD, intReg(11), intReg(2),
                             intReg(3)));
    for (int i = 0; i < 12; ++i) {
        rig.issue(4);
        rig.tick();
    }
    EXPECT_EQ(rig.segmentOf(1), 0);
    rig.setReady(intReg(1));
    rig.setReady(intReg(3));
    rig.drain();
}

TEST(IqSoaTorture, ReusedWireSignalsPastStaleWake)
{
    // 8 two-entry segments.  Two divides hold two load heads in the top
    // segment for a while.  The first head then promotes one segment a
    // cycle, so each Assert reaches the top two cycles after the one
    // before; a squash takes that head while its table entry still
    // waits for the last one.  The squash frees the wire at once, and
    // the second head gets it back, with an empty log, before the old
    // Assert would have arrived.  That head stays put past the old
    // arrival cycle; when it promotes, its member must see its Assert.
    DualRig rig(tinyParams(16, 2));
    for (int i = 0; i < 20; ++i)
        rig.tick();  // past the drain delay a squash gives a wire
    ASSERT_TRUE(rig.dispatch(1, Opcode::DIV, intReg(20), intReg(4),
                             intReg(5)));
    for (int i = 0; i < 7; ++i)
        rig.tick();
    ASSERT_TRUE(rig.dispatch(2, Opcode::DIV, intReg(30), intReg(4),
                             intReg(5)));
    ASSERT_TRUE(rig.dispatch(3, Opcode::LD, intReg(2), intReg(20)));
    // The first head promotes at cycles 28, 30 and 32; its last Assert
    // (from segment 5) reaches its table entry at the top at cycle 34.
    for (int i = 0; i < 5; ++i)
        rig.tick();
    ASSERT_EQ(rig.segmentOf(3), 4);
    const std::size_t wires = rig.chainsInUse();
    rig.squash(2);
    rig.tick();  // the squashed head's wire is free again
    ASSERT_TRUE(rig.dispatch(4, Opcode::LD, intReg(21), intReg(30)));
    ASSERT_TRUE(rig.dispatch(5, Opcode::ADD, intReg(22), intReg(21),
                             intReg(3)));
    EXPECT_EQ(rig.chainsInUse(), wires);
    rig.tick();
    ASSERT_EQ(rig.cycle(), 34u);
    ASSERT_EQ(rig.segmentOf(4), 7);
    rig.tick();  // the new head's first Assert
    ASSERT_EQ(rig.segmentOf(4), 6);
    rig.drain();
}

TEST(IqSoaTorture, ListenerPromotedTwiceUnderOneAssert)
{
    // 8 two-entry segments.  A load head promotes one segment a cycle
    // to the issue buffer.  Its dependent, dispatched at the top while
    // the head sits in segment 2, is eligible at once and promotes a
    // segment a cycle too, so the head's Assert from segment 2 (cycle
    // 6, due at the top at cycle 11) reaches it after two more moves,
    // at cycle 8 in segment 4.  Each move must bring its due cycle
    // forward; delivering at the due cycle computed at dispatch would
    // leave its delay 2 too high for a cycle and stall it in segment 4.
    DualRig rig(tinyParams(16, 2));
    rig.clearReady(intReg(1));
    ASSERT_TRUE(rig.dispatch(1, Opcode::LD, intReg(2), intReg(1)));
    for (int i = 0; i < 5; ++i)
        rig.tick();
    ASSERT_EQ(rig.segmentOf(1), 2);
    ASSERT_TRUE(rig.dispatch(2, Opcode::ADD, intReg(10), intReg(2),
                             intReg(3)));
    EXPECT_EQ(rig.delayOf(2), 8);  // head 2 segments down, load latency 4
    rig.tick();  // cycle 6: the head leaves segment 2, the member 7
    ASSERT_EQ(rig.segmentOf(2), 6);
    rig.tick();  // cycle 7
    ASSERT_EQ(rig.segmentOf(2), 5);
    EXPECT_EQ(rig.delayOf(2), 8);  // the Assert is still climbing
    rig.tick();  // cycle 8: moved into segment 4, where it arrives now
    ASSERT_EQ(rig.segmentOf(2), 4);
    EXPECT_EQ(rig.delayOf(2), 6);
    rig.tick();  // cycle 9: eligible again, and the next Assert lands
    EXPECT_EQ(rig.segmentOf(2), 3);
    EXPECT_EQ(rig.delayOf(2), 4);
    rig.setReady(intReg(1));
    rig.setReady(intReg(3));
    rig.drain();
}

TEST(IqSoaTorture, RestoredTableEntryLagsWireReusedSameCycle)
{
    // 8 two-entry segments.  A load head's dependent writes r5; a
    // younger instruction overwrites that table entry before any of
    // the head's Asserts reach the top, so the entry saved for undo
    // lags the wire.  The head issues and completes; its wire drains
    // and is freed at the start of cycle 18.  In that same cycle a
    // squash restores the lagging entry and a new load head is given
    // the freed wire: the restored entry is now stale and must take
    // none of the new generation's signals, in either engine.
    DualRig rig(tinyParams(16, 2));
    ASSERT_TRUE(rig.dispatch(1, Opcode::LD, intReg(2), intReg(1)));
    ASSERT_TRUE(rig.dispatch(2, Opcode::ADD, intReg(5), intReg(2),
                             intReg(3)));
    rig.tick();
    ASSERT_TRUE(rig.dispatch(3, Opcode::ADD, intReg(5), intReg(6),
                             intReg(7)));
    rig.issueUntil(1, /*complete=*/false);
    const Cycle issued_at = rig.cycle();
    rig.tick();
    rig.loadComplete(1);  // writeback: the wire drains for n + 2 cycles
    const Cycle freed_at = rig.cycle() + 8 + 2;
    while (rig.cycle() < freed_at) {
        rig.issue(1);
        rig.tick();
    }
    EXPECT_GT(freed_at, issued_at);
    const std::size_t wires = rig.chainsInUse();
    rig.squash(2);  // restores r5's entry on the drained wire
    ASSERT_TRUE(rig.dispatch(4, Opcode::LD, intReg(21), intReg(30)));
    EXPECT_EQ(rig.headedChain(4), rig.headedChain(1));
    EXPECT_EQ(rig.chainsInUse(), wires + 1);
    // A reader of the restored entry and the new head's wire.
    ASSERT_TRUE(rig.dispatch(5, Opcode::ADD, intReg(22), intReg(5),
                             intReg(21)));
    for (int i = 0; i < 10; ++i) {
        rig.issue(1);
        rig.tick();
    }
    rig.drain();
}

TEST(IqSoaTorture, DeadlockRecoveryParity)
{
    // Wedge a 4-entry queue behind a never-ready load; with the core
    // idle the watchdog fires and both engines must run the identical
    // recovery (heads hoisted, memberships rebuilt).  Bypass on so all
    // four instructions fit past the 2-entry dispatch segment.
    IqParams params = tinyParams(4, 2);
    params.enableBypass = true;
    DualRig rig(params);
    rig.clearReady(intReg(1));
    ASSERT_TRUE(rig.dispatch(1, Opcode::LD, intReg(2), intReg(1)));
    for (SeqNum s = 2; s <= 4; ++s)
        rig.dispatch(s, Opcode::ADD, intReg(10 + s), intReg(2), intReg(3));
    ASSERT_EQ(rig.occupancy(), 4u);
    for (int i = 0; i < 6; ++i) {
        rig.issue(4);
        rig.tick(/*busy=*/false);
    }
    EXPECT_EQ(rig.occupancy(), 4u);
    rig.setReady(intReg(1));
    rig.setReady(intReg(2));
    rig.setReady(intReg(3));
    rig.drain();
}

} // namespace

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--update-work-proxy")
            g_update_proxy = true;
    }
    const int rc = RUN_ALL_TESTS();
    if (g_update_proxy && rc == 0)
        writeProxyFile();
    return rc;
}
