/**
 * @file
 * The repository benchmark harness (see README.md in this directory).
 *
 * One invocation runs one workload: a fixed list of simulator jobs made
 * from the workload seed, repeated in rounds until the time budget is
 * spent.  Metrics are medians over the rounds.  Every layer is measured
 * from the outside, by timing calls into its public functions and by
 * reading its public counters:
 *
 *   workload  buildWorkload
 *   sim       Simulator::Simulator / prepare / collect, SweepRunner::run,
 *             writeResultsJson, CheckpointCache reuse
 *   isa       functional warming and its basic-block cache (RunResult)
 *   core      OooCore::run, or OooCore::tick stepped by this file
 *   iq        IqBase counters, SegmentedIq work counters and profiler
 *   mem, lsq, branch   public stats of MemHierarchy, Lsq and predictors
 *
 * `--trace 0` reports the end-to-end metrics.  `--trace 1` interleaves
 * untraced and traced passes over the same jobs; it reports per-layer
 * metrics, span self times and the tracing overhead, and writes the
 * spans to `--out-dir`.  Every job runs with golden-model validation,
 * and each pass's digest of the exact simulated results must agree
 * with every other pass of the invocation.
 *
 * The last line of stdout is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "iq/segmented_iq.hh"
#include "isa/functional_core.hh"
#include "sim/checkpoint.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "workload/workloads.hh"

using namespace sciq;

namespace {

using Clock = std::chrono::steady_clock;

/** Seed used when none is given, and the one kept back for claims. */
constexpr std::uint64_t kDefaultSeed = 12345;
constexpr std::uint64_t kHeldOutSeed = 271828;

/** Instructions left to time after the sweep-ff warm-up. */
constexpr std::uint64_t kSweepTail = 12000;

/** Rounds measured even when one round outlasts the time budget. */
constexpr unsigned kMinRounds = 3;

/**
 * SweepRunner::run passes per round of sweep-ff.  A sweep's wall time
 * also varies with how its jobs fall on the worker threads and which
 * job produces each shared warm-up; the fastest of more sweeps is
 * steadier.
 */
constexpr unsigned kSweepsPerRound = 2;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
minimum(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/** Nearest-rank percentile of `v` (reorders it). */
double
percentile(std::vector<float> &v, double p)
{
    if (v.empty())
        return 0.0;
    const auto rank = static_cast<std::size_t>(std::ceil(p * v.size()));
    const std::size_t k = std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1;
    std::nth_element(v.begin(), v.begin() + k, v.end());
    return v[k];
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// --------------------------------------------------------------------
// Workloads

struct Job
{
    std::string label;  ///< "<kernel>/<queue>-<size>"
    SimConfig cfg;
};

struct Workload
{
    std::vector<Job> jobs;
    bool sweep = false;    ///< executed through SweepRunner::run
    unsigned threads = 1;  ///< SweepRunner worker threads
};

Job
makeJob(const std::string &kernel, const std::string &queue, SimConfig cfg,
        std::uint64_t seed, std::uint64_t iterations)
{
    cfg.wl.seed = seed;
    cfg.wl.iterations = iterations;
    cfg.validate = true;
    return {kernel + "/" + queue, std::move(cfg)};
}

/** Dynamic instruction count of a kernel run to HALT. */
std::uint64_t
programLength(const std::string &kernel, const WorkloadParams &wl)
{
    const Program program = buildWorkload(kernel, wl);
    FunctionalCore fc(program);
    const std::uint64_t n = fc.run();
    if (!fc.halted())
        throw std::runtime_error(kernel + " did not halt functionally");
    return n;
}

/**
 * The job list of a workload.  README.md records why each was chosen,
 * which modules it stresses and which optimisations it bypasses.
 */
Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    if (name == "window512-mem") {
        // The Fig. 2/3 hot path: memory-bound kernels on the two
        // 512-entry queues, serially, no fast-forward.  Iterations are
        // about a twentieth of the kernels' defaults, so that a round
        // takes about a second and a run holds many rounds.
        const std::pair<const char *, std::uint64_t> kernels[] = {
            {"ammp", 512},  {"applu", 512}, {"equake", 512},
            {"mgrid", 512}, {"swim", 512},  {"vortex", 1280}};
        for (const auto &[k, iters] : kernels) {
            w.jobs.push_back(makeJob(
                k, "segmented-512",
                makeSegmentedConfig(512, 128, true, true, k), seed, iters));
            w.jobs.push_back(makeJob(k, "ideal-512",
                                     makeIdealConfig(512, k), seed, iters));
        }
    } else if (name == "int64-branchy") {
        // Front-end and squash bound integer codes on small queues of
        // every design, serially, at the kernels' default lengths.
        for (const char *k : {"gcc", "twolf"}) {
            w.jobs.push_back(makeJob(k, "ideal-64", makeIdealConfig(64, k),
                                     seed, 0));
            w.jobs.push_back(makeJob(
                k, "segmented-64",
                makeSegmentedConfig(64, 128, true, true, k), seed, 0));
            // 16-entry issue buffer + 4 lines of 12 = 64 entries.
            SimConfig pre = makePrescheduledConfig(64, k);
            pre.core.iq.issueBufferSize = 16;
            w.jobs.push_back(makeJob(k, "prescheduled-64", pre, seed, 0));
            w.jobs.push_back(
                makeJob(k, "fifo-64", makeFifoConfig(8, 8, k), seed, 0));
        }
    } else if (name == "sweep-ff") {
        // Evaluation regeneration: every kernel under several queues,
        // each job fast-forwarding to kSweepTail instructions before
        // HALT, warm-ups shared through one in-process checkpoint cache.
        for (const std::string &k : workloadNames()) {
            WorkloadParams wl;
            wl.seed = seed;
            const std::uint64_t len = programLength(k, wl);
            const std::uint64_t ff = len > 2 * kSweepTail ? len - kSweepTail
                                                          : len / 2;
            const std::pair<std::string, SimConfig> queues[] = {
                {"ideal-64", makeIdealConfig(64, k)},
                {"segmented-64", makeSegmentedConfig(64, 128, true, true, k)},
                {"ideal-256", makeIdealConfig(256, k)},
                {"segmented-256",
                 makeSegmentedConfig(256, 128, true, true, k)},
                {"prescheduled-128", makePrescheduledConfig(128, k)},
                {"fifo-64", makeFifoConfig(8, 8, k)},
            };
            for (const auto &[queue, cfg] : queues) {
                Job job = makeJob(k, queue, cfg, seed, 0);
                job.cfg.fastForward = ff;
                w.jobs.push_back(std::move(job));
            }
        }
        w.sweep = true;
        w.threads = std::max(1u, std::min(2u, std::thread::hardware_concurrency()));
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

// --------------------------------------------------------------------
// Spans

/** One timed call into a layer; times are seconds from the epoch. */
struct Span
{
    std::string name;
    int parent;      ///< index into the span list, -1 for a root
    int job;         ///< job index, -1 outside a job
    int round;
    double start;
    double end;
};

/** Keeps spans in memory; a disabled tracer records nothing. */
class Tracer
{
  public:
    Tracer(bool enabled, Clock::time_point epoch)
        : enabled_(enabled), epoch_(epoch)
    {
    }

    bool enabled() const { return enabled_; }

    /** Record a finished span; returns its index (-1 when disabled). */
    int
    add(const char *name, int parent, int job, Clock::time_point start,
        Clock::time_point end)
    {
        if (!enabled_)
            return -1;
        spans_.push_back({name, parent, job, round_,
                          secondsBetween(epoch_, start),
                          secondsBetween(epoch_, end)});
        return static_cast<int>(spans_.size()) - 1;
    }

    /** Open a span whose end is set later by close(). */
    int
    open(const char *name, int parent, int job, Clock::time_point start)
    {
        return add(name, parent, job, start, start);
    }

    void
    close(int id, Clock::time_point end)
    {
        if (id >= 0)
            spans_[id].end = secondsBetween(epoch_, end);
    }

    void setRound(int round) { round_ = round; }

    /**
     * Self time (duration minus direct children) summed per layer, the
     * layer being the span name up to the first '.', for one round.
     */
    std::map<std::string, double>
    selfTimeByLayer(int round) const
    {
        std::vector<double> self(spans_.size(), 0.0);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            if (spans_[i].round != round)
                continue;
            self[i] += spans_[i].end - spans_[i].start;
            if (spans_[i].parent >= 0)
                self[spans_[i].parent] -= spans_[i].end - spans_[i].start;
        }
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            if (spans_[i].round != round)
                continue;
            const std::string &n = spans_[i].name;
            out[n.substr(0, n.find('.'))] += self[i];
        }
        return out;
    }

    /** Chrome trace-event JSON (loadable in chrome://tracing, Perfetto). */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{\"traceEvents\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << "  {\"name\": ";
            json::writeString(out, s.name);
            out << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.job + 1
                << ", \"ts\": ";
            json::writeNumber(out, s.start * 1e6);
            out << ", \"dur\": ";
            json::writeNumber(out, (s.end - s.start) * 1e6);
            out << ", \"args\": {\"id\": " << i << ", \"parent\": "
                << s.parent << ", \"job\": " << s.job << ", \"round\": "
                << s.round << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        out << "]}\n";
        return static_cast<bool>(out);
    }

  private:
    bool enabled_;
    Clock::time_point epoch_;
    int round_ = 0;
    std::vector<Span> spans_;
};

// --------------------------------------------------------------------
// Exact counters and digests

void
fnv(std::uint64_t &h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
}

template <typename T>
void
fnvValue(std::uint64_t &h, T v)
{
    fnv(h, &v, sizeof v);
}

/**
 * Digest of the simulated results of a job list: every field of
 * RunResult that is exact (cycles, instructions, model statistics,
 * host-work counters, validation), none that is wall-clock or depends
 * on which sweep job happened to produce a shared warm-up.
 */
std::uint64_t
digestResults(const std::vector<RunResult> &results)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    fnvValue(h, results.size());
    for (const RunResult &r : results) {
        fnv(h, r.workload.data(), r.workload.size());
        fnv(h, r.iqKind.data(), r.iqKind.size());
        fnvValue(h, r.iqSize);
        fnvValue(h, r.chains);
        fnvValue(h, r.cycles);
        fnvValue(h, r.insts);
        for (double v : {r.ipc, r.avgChains, r.peakChains, r.hmpAccuracy,
                         r.hmpCoverage, r.lrpMispredictRate,
                         r.branchMispredictRate, r.iqOccupancyAvg,
                         r.seg0ReadyAvg, r.seg0OccupancyAvg,
                         r.deadlockCycleFrac, r.twoOutstandingFrac,
                         r.headsFromLoadsFrac, r.l1dMissRate,
                         r.l1dDelayedHitFrac, r.segActiveAvg,
                         r.segCyclesActive}) {
            fnvValue(h, v);
        }
        for (std::uint64_t v : {r.iqSignalDeliveries, r.iqPlanCalls,
                                r.iqSegmentsScanned, r.iqLaneWordsTouched,
                                r.auditViolations}) {
            fnvValue(h, v);
        }
        fnvValue(h, r.validated);
        fnvValue(h, r.haltedCleanly);
        fnvValue(h, static_cast<int>(r.outcome.status));
    }
    return h;
}

/** Public model counters of one finished job, summed over jobs. */
struct Counters
{
    double cycles = 0, insts = 0, fetched = 0, wrongPath = 0, squashes = 0;
    double iqIssued = 0, iqStallsFull = 0, iqOccSum = 0, iqOccSamples = 0;
    double l1dAccesses = 0, l1dMisses = 0, l1dDelayed = 0;
    double l1Misses = 0, memReads = 0, mshrFullStalls = 0;
    double condBranches = 0, condMispredicts = 0;
    double hmpPredictHit = 0, hmpCorrect = 0, hmpActualHits = 0;
    double lrpPredicts = 0, lrpMispredicts = 0;

    // Segmented queues only.
    double segCycles = 0, chainsSum = 0, chainsSamples = 0;
    double sigDeliveries = 0, planCalls = 0, segsScanned = 0, laneWords = 0;
    double promoteS = 0, deliverS = 0, countdownS = 0, issueS = 0,
           dispatchS = 0, profTicks = 0;

    void
    add(OooCore &core)
    {
        cycles += static_cast<double>(core.cycles());
        insts += core.committedInsts.value();
        fetched += core.fetchedInsts.value();
        wrongPath += core.wrongPathInsts.value();
        squashes += core.squashes.value();

        IqBase &iq = core.iqUnit();
        iqIssued += iq.instsIssued.value();
        iqStallsFull += iq.dispatchStallsFull.value();
        iqOccSum += iq.occupancyAvg.total();
        iqOccSamples += static_cast<double>(iq.occupancyAvg.samples());

        MemHierarchy &mem = core.memHierarchy();
        l1dAccesses += mem.dcache().accesses.value();
        l1dMisses += mem.dcache().misses.value();
        l1dDelayed += mem.dcache().delayedHits.value();
        // The L2 counts CPU-side accesses only, and L1 misses reach it
        // by another path; its misses are the main-memory line reads.
        l1Misses += mem.dcache().misses.value() + mem.icache().misses.value();
        memReads += mem.memory().reads.value();
        mshrFullStalls += mem.dcache().mshrFullStalls.value() +
                          mem.l2cache().mshrFullStalls.value();

        condBranches += core.committedCondBranches.value();
        condMispredicts += core.branchPredictor().condMispredicts.value();
        HitMissPredictor &hmp = core.hitMissPredictor();
        hmpPredictHit += hmp.predictHitCount.value();
        hmpCorrect += hmp.hitPredictsCorrect.value();
        hmpActualHits += hmp.actualHits.value();
        lrpPredicts += core.leftRightPredictor().predicts.value();
        lrpMispredicts += core.leftRightPredictor().mispredicts.value();

        if (auto *seg = dynamic_cast<SegmentedIq *>(&iq)) {
            segCycles += static_cast<double>(core.cycles());
            chainsSum += seg->chainsInUseAvg.total();
            chainsSamples +=
                static_cast<double>(seg->chainsInUseAvg.samples());
            const auto &w = seg->workCounters();
            sigDeliveries += static_cast<double>(w.signalDeliveries);
            planCalls += static_cast<double>(w.planCalls);
            segsScanned += static_cast<double>(w.segmentsScanned);
            laneWords += static_cast<double>(w.laneWordsTouched);
            const auto &p = seg->profile();
            promoteS += p.promoteSec;
            deliverS += p.deliverSec;
            countdownS += p.countdownSec;
            issueS += p.issueSec;
            dispatchS += p.dispatchSec;
            profTicks += static_cast<double>(p.ticks);
        }
    }
};

/** Per-tick host timing of the benchmark's own stepping loop. */
struct TickStats
{
    std::vector<float> tickNs;
    std::uint64_t idleTicks = 0;
    double idleNs = 0.0;
    double allNs = 0.0;
};

/**
 * Step the core one tick at a time, exactly as OooCore::run(~0ULL,
 * max_cycles) does: the same cycle cap, the same halt test and the same
 * no-commit watchdog, so the simulated result is tick-for-tick that of
 * run() (the digest check enforces it).  Each tick is timed, and a tick
 * is idle when it changed none of committed, fetched, IQ-inserted,
 * IQ-issued and LSQ-loads-issued.
 */
void
tickLoop(OooCore &core, Cycle max_cycles, TickStats &ts)
{
    const Cycle limit =
        max_cycles == ~0ULL ? ~0ULL : core.cycles() + max_cycles;
    const Cycle watchdog = core.coreParams().watchdogCycles;
    IqBase &iq = core.iqUnit();
    Lsq &lsq = core.lsqUnit();
    auto activity = [&] {
        return std::array<double, 5>{
            core.committedInsts.value(), core.fetchedInsts.value(),
            iq.instsInserted.value(), iq.instsIssued.value(),
            lsq.loadsIssued.value()};
    };

    Cycle last_commit = core.cycles();
    std::array<double, 5> before = activity();
    while (!core.halted() && core.cycles() < limit) {
        const auto t0 = Clock::now();
        core.tick();
        const auto t1 = Clock::now();
        const float ns = std::chrono::duration<float, std::nano>(t1 - t0)
                             .count();
        const std::array<double, 5> after = activity();
        ts.tickNs.push_back(ns);
        ts.allNs += ns;
        if (after == before) {
            ++ts.idleTicks;
            ts.idleNs += ns;
        }
        if (after[0] != before[0])
            last_commit = core.cycles();
        before = after;
        if (watchdog && core.cycles() - last_commit >= watchdog) {
            throw DeadlockError("watchdog: no instruction committed for " +
                                    std::to_string(core.cycles() -
                                                   last_commit) +
                                    " cycles",
                                "");
        }
    }
}

// --------------------------------------------------------------------
// Passes over a workload's jobs

/** What one pass over the job list measured. */
struct Pass
{
    std::vector<RunResult> results;  ///< job order; failures included
    std::uint64_t failed = 0;
    std::uint64_t digest = 0;
    bool jsonOk = true;

    double wallS = 0.0;   ///< first construction to results written
    double setupS = 0.0;  ///< construction + warm-up/restore, summed
    double loopS = 0.0;   ///< timed core loop, summed
    // Per job, serial passes only.
    std::vector<double> jobSetupS, jobLoopS, jobWallS;

    // Phase times summed over jobs.
    double buildS = 0.0, constructS = 0.0, prepareS = 0.0, collectS = 0.0;
    double jsonS = 0.0;
    double busyFrac = 0.0;

    // Warm-up accounting (jobs with a fast-forward).
    std::uint64_t ffJobs = 0, restored = 0;
    double coldFfInsts = 0.0, coldPrepareS = 0.0;
    double bbTraceHits = 0.0, bbBlocks = 0.0;

    Counters counters;
    TickStats ticks;
};

/** A job that threw, with the same shape the sweep runner gives it. */
RunResult
failedResult(const SimConfig &cfg, const std::string &what)
{
    RunResult r;
    r.workload = cfg.workload;
    r.iqKind = iqKindName(cfg.core.iqKind);
    r.iqSize = cfg.core.iq.numEntries;
    r.outcome.status = JobOutcome::Status::Failed;
    r.outcome.message = what;
    return r;
}

bool
jobOk(const RunResult &r)
{
    return r.outcome.ok() && r.haltedCleanly && r.validated;
}

/**
 * Write the results through writeResultsJson and read them back: the
 * file must parse and hold one ok, validated entry per job.
 */
bool
writeAndCheckJson(const std::string &path,
                  const std::vector<RunResult> &results, double &seconds)
{
    const auto t0 = Clock::now();
    const bool wrote = writeResultsJson(path, results);
    seconds = secondsBetween(t0, Clock::now());
    if (!wrote)
        return false;
    try {
        const json::Value v = json::parseFile(path);
        if (v.size() != results.size())
            return false;
        for (const json::Value &e : v.asArray()) {
            if (e.at("outcome").asString() != "ok" ||
                !e.at("validated").asBool())
                return false;
        }
    } catch (const std::exception &) {
        return false;
    }
    return true;
}

/** Give ff jobs one fresh in-memory warm-up cache, as a sweep does. */
std::vector<SimConfig>
passConfigs(const Workload &w)
{
    auto cache = std::make_shared<CheckpointCache>();
    std::vector<SimConfig> cfgs;
    for (const Job &job : w.jobs) {
        cfgs.push_back(job.cfg);
        if (cfgs.back().fastForward > 0)
            cfgs.back().ckptCache = cache;
    }
    return cfgs;
}

/**
 * Run every job serially through the Simulator phases.  Untraced, the
 * core loop is OooCore::run, as in Simulator::run.  Traced, each phase
 * is a span, the program is also built once on its own to time
 * buildWorkload, the core is stepped by tickLoop and the segmented
 * queue's substage profiler is on.
 */
Pass
serialPass(const Workload &w, Tracer &tr, int parent,
           const std::string &json_path)
{
    const bool traced = tr.enabled();
    Pass p;
    const std::vector<SimConfig> cfgs = passConfigs(w);
    const auto pass_start = Clock::now();
    double jobs_s = 0.0;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const SimConfig &cfg = cfgs[i];
        const int job = static_cast<int>(i);
        const auto job_start = Clock::now();
        const int js = tr.open("bench.job", parent, job, job_start);
        try {
            if (traced) {
                const auto b0 = Clock::now();
                const Program program = buildWorkload(cfg.workload, cfg.wl);
                const auto b1 = Clock::now();
                tr.add("workload.build", js, job, b0, b1);
                p.buildS += secondsBetween(b0, b1);
            }
            const auto t0 = Clock::now();
            Simulator sim(cfg);
            const auto t1 = Clock::now();
            bool restored = false;
            const std::uint64_t skipped = sim.prepare(restored);
            const auto t2 = Clock::now();
            if (traced) {
                if (auto *seg =
                        dynamic_cast<SegmentedIq *>(&sim.core().iqUnit()))
                    seg->setProfiling(true);
                tickLoop(sim.core(), cfg.maxCycles, p.ticks);
            } else {
                sim.core().run(~0ULL, cfg.maxCycles);
            }
            const auto t3 = Clock::now();
            RunResult r =
                sim.collect(secondsBetween(t2, t3), skipped, restored);
            const auto t4 = Clock::now();

            tr.add("sim.construct", js, job, t0, t1);
            tr.add("sim.prepare", js, job, t1, t2);
            tr.add("core.tick_loop", js, job, t2, t3);
            tr.add("sim.collect", js, job, t3, t4);
            p.constructS += secondsBetween(t0, t1);
            p.prepareS += secondsBetween(t1, t2);
            p.jobSetupS.push_back(secondsBetween(t0, t2));
            p.jobLoopS.push_back(secondsBetween(t2, t3));
            p.setupS += p.jobSetupS.back();
            p.loopS += p.jobLoopS.back();
            p.collectS += secondsBetween(t3, t4);
            if (cfg.fastForward > 0) {
                ++p.ffJobs;
                p.restored += restored ? 1 : 0;
                if (!restored) {
                    p.coldFfInsts += static_cast<double>(skipped);
                    p.coldPrepareS += secondsBetween(t1, t2);
                    p.bbTraceHits += static_cast<double>(r.bbTraceHits);
                    p.bbBlocks += static_cast<double>(r.bbBlocks);
                }
            }
            p.counters.add(sim.core());
            p.results.push_back(std::move(r));
        } catch (const std::exception &e) {
            p.results.push_back(failedResult(cfg, e.what()));
            p.jobSetupS.push_back(0.0);
            p.jobLoopS.push_back(0.0);
        }
        const auto job_end = Clock::now();
        tr.close(js, job_end);
        p.jobWallS.push_back(secondsBetween(job_start, job_end));
        jobs_s += p.jobWallS.back();
    }
    const auto j0 = Clock::now();
    p.jsonOk = writeAndCheckJson(json_path, p.results, p.jsonS);
    const auto j1 = Clock::now();
    tr.add("sim.json_write", parent, -1, j0, j1);
    p.wallS = secondsBetween(pass_start, j1);
    p.busyFrac = ratio(jobs_s, p.wallS);
    for (const RunResult &r : p.results)
        p.failed += jobOk(r) ? 0 : 1;
    p.digest = digestResults(p.results);
    return p;
}

/**
 * Run the job list through SweepRunner::run, then write it through
 * writeResultsJson.  Busy fraction: each worker thread is busy from the
 * sweep start to its last job's completion (taken from the progress
 * callback, which runs on the worker), over wall time x threads.
 */
Pass
sweepPass(const Workload &w, Tracer &tr, int parent,
          const std::string &json_path)
{
    Pass p;
    const std::vector<SimConfig> cfgs = passConfigs(w);
    SweepRunner runner(w.threads);
    std::mutex mu;
    std::map<std::thread::id, Clock::time_point> last_done;
    SweepRunner::Options options;
    options.progress = [&](std::size_t, std::size_t, const RunResult &) {
        const auto now = Clock::now();
        std::lock_guard<std::mutex> lock(mu);
        last_done[std::this_thread::get_id()] = now;
    };

    const auto t0 = Clock::now();
    p.results = runner.run(cfgs, options);
    const auto t1 = Clock::now();
    tr.add("sim.sweep_run", parent, -1, t0, t1);
    p.jsonOk = writeAndCheckJson(json_path, p.results, p.jsonS);
    const auto t2 = Clock::now();
    tr.add("sim.json_write", parent, -1, t1, t2);

    p.wallS = secondsBetween(t0, t2);
    double busy_s = 0.0;
    for (const auto &[tid, done] : last_done)
        busy_s += secondsBetween(t0, done);
    const unsigned threads = static_cast<unsigned>(
        std::min<std::size_t>(runner.jobs(), cfgs.size()));
    p.busyFrac = ratio(busy_s, secondsBetween(t0, t1) * threads);
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const RunResult &r = p.results[i];
        p.failed += jobOk(r) ? 0 : 1;
        p.loopS += r.hostSeconds;
        if (cfgs[i].fastForward > 0) {
            ++p.ffJobs;
            p.restored += r.ckptRestored ? 1 : 0;
        }
    }
    p.digest = digestResults(p.results);
    return p;
}

// --------------------------------------------------------------------
// Metrics

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

/** Geometric-mean IPC over ok jobs. */
double
simIpc(const std::vector<RunResult> &results)
{
    std::vector<double> ipcs;
    for (const RunResult &r : results) {
        if (jobOk(r) && r.ipc > 0.0)
            ipcs.push_back(r.ipc);
    }
    return geomean(ipcs);
}

/** Geometric mean of segmented IPC / ideal IPC per (kernel, size). */
double
segVsIdeal(const std::vector<RunResult> &results)
{
    std::vector<double> ratios;
    for (const RunResult &s : results) {
        if (s.iqKind != "segmented" || !jobOk(s))
            continue;
        for (const RunResult &i : results) {
            if (i.iqKind == "ideal" && i.workload == s.workload &&
                i.iqSize == s.iqSize && jobOk(i) && i.ipc > 0.0)
                ratios.push_back(s.ipc / i.ipc);
        }
    }
    return geomean(ratios);
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        os << (i ? ", " : "");
        json::writeString(os, m.name);
        os << ": {\"value\": ";
        json::writeNumber(os, std::isfinite(m.value) ? m.value : 0.0);
        os << ", \"unit\": ";
        json::writeString(os, m.unit);
        os << "}";
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --------------------------------------------------------------------
// Host and build descriptor

/** The -fsanitize= list the harness was compiled with, or "". */
std::string
sanitizers()
{
    const std::string flags = PERFBENCH_CXX_FLAGS;
    const std::string key = "-fsanitize=";
    const std::size_t at = flags.find(key);
    if (at == std::string::npos)
        return "";
    const std::size_t start = at + key.size();
    return flags.substr(start, flags.find(' ', start) - start);
}

void
printHostDescriptor(const std::string &workload, std::uint64_t seed,
                    double seconds, bool trace, double load_at_start)
{
    const std::string build_type = PERFBENCH_BUILD_TYPE;
    const std::string sans = sanitizers();
    const bool comparable =
        (build_type == "Release" || build_type == "RelWithDebInfo") &&
        sans.empty();
    std::ostringstream os;
    os << "{\"host\": {\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"loadavg_1m_at_start\": ";
    json::writeNumber(os, load_at_start);
    os << ", \"compiler\": ";
#if defined(__clang__)
    json::writeString(os, std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
    json::writeString(os, std::string("gcc ") + __VERSION__);
#else
    json::writeString(os, "unknown");
#endif
    os << ", \"build_type\": ";
    json::writeString(os, build_type);
    os << ", \"cxx_flags\": ";
    json::writeString(os, PERFBENCH_CXX_FLAGS);
    os << ", \"sanitizers\": ";
    json::writeString(os, sans);
    os << ", \"comparable\": " << (comparable ? "true" : "false")
       << "}, \"workload\": ";
    json::writeString(os, workload);
    os << ", \"seed\": " << seed << ", \"default_seed\": " << kDefaultSeed
       << ", \"held_out_seed\": " << kHeldOutSeed << ", \"seconds\": ";
    json::writeNumber(os, seconds);
    os << ", \"trace\": " << (trace ? 1 : 0) << "}";
    std::printf("%s\n", os.str().c_str());
    if (!comparable) {
        std::printf("WARNING: %s build%s%s: timings are not comparable "
                    "with optimized builds\n",
                    build_type.c_str(), sans.empty() ? "" : " with ",
                    sans.c_str());
    }
}

// --------------------------------------------------------------------
// Driver

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".";
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + key);
        const std::string val = argv[++i];
        if (key == "--workload")
            a.workload = val;
        else if (key == "--seed")
            a.seed = std::stoull(val);
        else if (key == "--seconds")
            a.seconds = std::stod(val);
        else if (key == "--trace")
            a.trace = std::stoi(val) != 0;
        else if (key == "--out-dir")
            a.outDir = val;
        else
            throw std::invalid_argument("unknown argument " + key);
    }
    if (a.workload.empty())
        throw std::invalid_argument("--workload is required");
    if (!(a.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    return a;
}

/** Per-round values by name, summarised over rounds. */
class RoundSeries
{
  public:
    void add(const std::string &name, double v) { series_[name].push_back(v); }
    double median(const std::string &name) const
    {
        auto it = series_.find(name);
        return it == series_.end() ? 0.0 : ::median(it->second);
    }
    double minimum(const std::string &name) const
    {
        auto it = series_.find(name);
        return it == series_.end() ? 0.0 : ::minimum(it->second);
    }

  private:
    std::map<std::string, std::vector<double>> series_;
};

/** Per-layer values of one traced pass (ratios of sums over its jobs). */
void
addLayerValues(RoundSeries &s, const Pass &p)
{
    const Counters &c = p.counters;
    s.add("workload.build_s", p.buildS);
    s.add("sim.construct_s", p.constructS);
    s.add("sim.prepare_s", p.prepareS);
    s.add("sim.collect_s", p.collectS);
    s.add("isa.warm_minsts_per_s", ratio(p.coldFfInsts, p.coldPrepareS) / 1e6);
    s.add("isa.bb_trace_hit_ratio",
          ratio(p.bbTraceHits, p.bbTraceHits + p.bbBlocks));

    std::vector<float> ticks = p.ticks.tickNs;
    s.add("core.tick_ns_p50", percentile(ticks, 0.50));
    s.add("core.tick_ns_p99", percentile(ticks, 0.99));
    s.add("core.idle_tick_frac",
          ratio(static_cast<double>(p.ticks.idleTicks),
                static_cast<double>(p.ticks.tickNs.size())));
    s.add("core.idle_tick_time_frac", ratio(p.ticks.idleNs, p.ticks.allNs));
    s.add("core.wrong_path_frac", ratio(c.wrongPath, c.fetched));
    s.add("core.squashes_per_kinst", 1e3 * ratio(c.squashes, c.insts));

    s.add("iq.promote_ns_per_tick", 1e9 * ratio(c.promoteS, c.profTicks));
    s.add("iq.deliver_ns_per_tick", 1e9 * ratio(c.deliverS, c.profTicks));
    s.add("iq.countdown_ns_per_tick",
          1e9 * ratio(c.countdownS, c.profTicks));
    s.add("iq.issue_ns_per_tick", 1e9 * ratio(c.issueS, c.profTicks));
    s.add("iq.dispatch_ns_per_tick", 1e9 * ratio(c.dispatchS, c.profTicks));
    s.add("iq.work.signal_deliveries", ratio(c.sigDeliveries, c.segCycles));
    s.add("iq.work.plan_calls", ratio(c.planCalls, c.segCycles));
    s.add("iq.work.segments_scanned", ratio(c.segsScanned, c.segCycles));
    s.add("iq.work.lane_words_touched", ratio(c.laneWords, c.segCycles));
    s.add("iq.issued_per_cycle", ratio(c.iqIssued, c.cycles));
    s.add("iq.occupancy_avg", ratio(c.iqOccSum, c.iqOccSamples));
    s.add("iq.dispatch_stall_frac", ratio(c.iqStallsFull, c.cycles));
    s.add("iq.avg_chains", ratio(c.chainsSum, c.chainsSamples));

    s.add("mem.l1d_miss_rate",
          ratio(c.l1dMisses + c.l1dDelayed, c.l1dAccesses));
    s.add("mem.l1d_delayed_hit_frac",
          ratio(c.l1dDelayed, c.l1dMisses + c.l1dDelayed));
    s.add("mem.l2_miss_rate", ratio(c.memReads, c.l1Misses));
    s.add("mem.mshr_full_stalls_per_kcycle",
          1e3 * ratio(c.mshrFullStalls, c.cycles));

    s.add("branch.mispredict_rate", ratio(c.condMispredicts, c.condBranches));
    s.add("branch.hmp_accuracy", ratio(c.hmpCorrect, c.hmpPredictHit));
    s.add("branch.hmp_coverage", ratio(c.hmpCorrect, c.hmpActualHits));
    s.add("branch.lrp_mispredict_rate",
          ratio(c.lrpMispredicts, c.lrpPredicts));
}

int
run(const Args &args)
{
    double load[1] = {0.0};
    if (getloadavg(load, 1) < 1)
        load[0] = -1.0;
    printHostDescriptor(args.workload, args.seed, args.seconds, args.trace,
                        load[0]);
    std::fflush(stdout);

    const Workload w = makeWorkload(args.workload, args.seed);
    const std::string json_path =
        args.outDir + "/results-" + args.workload + ".json";
    const auto epoch = Clock::now();
    Tracer tracer(args.trace, epoch);
    Tracer untraced(false, epoch);

    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::uint64_t> digests;
    bool json_ok = true;
    RoundSeries series;
    std::vector<RunResult> last_results;
    double first_pass_rss = 0.0;
    // Per-job timings across rounds.  The simulated work of a job is
    // identical in every round, so extra host time is interference from
    // outside: on a shared host, speed drops by up to half for phases of
    // seconds to minutes.  Loop and wall times are therefore sums of
    // per-job minima (best of rounds), whose run-to-run spread is a
    // fraction of that of medians; set-up time is the sum of per-job
    // medians.
    std::vector<std::vector<double>> job_setup(w.jobs.size());
    std::vector<std::vector<double>> job_loop(w.jobs.size());
    std::vector<std::vector<double>> job_wall(w.jobs.size());

    unsigned rounds = 0;
    while (rounds < kMinRounds ||
           secondsBetween(epoch, Clock::now()) < args.seconds) {
        if (rounds >= kMinRounds &&
            secondsBetween(epoch, Clock::now()) > 2 * args.seconds)
            break;
        tracer.setRound(static_cast<int>(rounds));
        if (!args.trace) {
            // Serial per-job set-up and loop times, free of interference
            // between sweep threads; then, for the sweep workload, the
            // sweeps themselves for wall_s.  Peak memory is taken after the
            // first serial pass, before sweep threads add allocator
            // arenas whose fragmentation varies from run to run.
            Pass p = serialPass(w, untraced, -1, json_path);
            if (rounds == 0)
                first_pass_rss = peakRssMb();
            std::vector<Pass> sweeps(w.sweep ? kSweepsPerRound : 0);
            std::vector<const Pass *> passes{&p};
            double sweep_s = 0.0;  // the round's fastest sweep, for the log
            for (Pass &sweep : sweeps) {
                sweep = sweepPass(w, untraced, -1, json_path);
                passes.push_back(&sweep);
                series.add("sweep_wall_s", sweep.wallS);
                if (sweep_s == 0.0 || sweep.wallS < sweep_s)
                    sweep_s = sweep.wallS;
            }
            for (const Pass *q : passes) {
                attempted += q->results.size();
                failed += q->failed;
                digests.push_back(q->digest);
                json_ok = json_ok && q->jsonOk;
            }
            for (std::size_t j = 0; j < w.jobs.size(); ++j) {
                job_setup[j].push_back(p.jobSetupS[j]);
                job_loop[j].push_back(p.jobLoopS[j]);
                job_wall[j].push_back(p.jobWallS[j]);
            }
            series.add("json_s", p.jsonS);
            std::fprintf(stderr,
                         "round %u: wall %.3fs setup %.4fs loop %.3fs "
                         "sweep %.3fs rss %.1fMiB digest %016llx\n",
                         rounds, p.wallS, p.setupS, p.loopS, sweep_s,
                         peakRssMb(),
                         static_cast<unsigned long long>(p.digest));
            last_results = std::move(p.results);
        } else {
            // Untraced and traced passes over the same jobs, serially,
            // so their difference is the cost of tracing.
            Pass base = serialPass(w, untraced, -1, json_path);
            const auto r0 = Clock::now();
            const int root = tracer.open("bench.round", -1, -1, r0);
            Pass sweep;
            if (w.sweep)
                sweep = sweepPass(w, tracer, root, json_path);
            const auto rep0 = Clock::now();
            Pass traced = serialPass(w, tracer, root, json_path);
            tracer.close(root, Clock::now());

            for (const Pass *p : {&base, &sweep, &traced}) {
                if (p->results.empty())
                    continue;
                attempted += p->results.size();
                failed += p->failed;
                digests.push_back(p->digest);
                json_ok = json_ok && p->jsonOk;
            }
            addLayerValues(series, traced);
            series.add("sim.json_write_s",
                       w.sweep ? sweep.jsonS : traced.jsonS);
            series.add("sim.sweep_busy_frac",
                       w.sweep ? sweep.busyFrac : traced.busyFrac);
            const Pass &ff = w.sweep ? sweep : traced;
            series.add("sim.ckpt_restore_ratio",
                       ratio(static_cast<double>(ff.restored),
                             static_cast<double>(ff.ffJobs)));
            series.add("core.ns_per_cycle",
                       1e9 * ratio(base.loopS, base.counters.cycles));
            series.add("trace.overhead_frac",
                       ratio(secondsBetween(rep0, Clock::now()),
                             base.wallS) - 1.0);
            for (const auto &[layer, self] :
                 tracer.selfTimeByLayer(static_cast<int>(rounds)))
                series.add("self." + layer + "_s", self);
            std::fprintf(stderr,
                         "round %u: untraced %.3fs traced %.3fs "
                         "digest %016llx\n",
                         rounds, base.wallS, traced.wallS,
                         static_cast<unsigned long long>(traced.digest));
            last_results = std::move(traced.results);
        }
        ++rounds;
    }

    const bool digests_agree =
        std::all_of(digests.begin(), digests.end(),
                    [&](std::uint64_t d) { return d == digests.front(); });
    if (!digests_agree)
        std::printf("ERROR: simulated results differ between passes\n");
    if (!json_ok)
        std::printf("ERROR: results JSON missing, malformed or not ok\n");
    std::printf("{\"sim_digest\": \"%016llx\", \"rounds\": %u, "
                "\"jobs\": %zu}\n",
                static_cast<unsigned long long>(digests.front()), rounds,
                w.jobs.size());

    std::vector<Metric> metrics;
    if (!args.trace) {
        double cycles = 0.0, insts = 0.0, loop_s = 0.0, setup_s = 0.0;
        double wall_s = series.minimum("json_s");
        for (std::size_t j = 0; j < w.jobs.size(); ++j) {
            cycles += static_cast<double>(last_results[j].cycles);
            insts += static_cast<double>(last_results[j].insts);
            loop_s += minimum(job_loop[j]);
            setup_s += median(job_setup[j]);
            wall_s += minimum(job_wall[j]);
        }
        if (w.sweep)
            wall_s = series.minimum("sweep_wall_s");
        for (std::size_t j = 0; j < w.jobs.size(); ++j) {
            std::fprintf(stderr,
                         "job %-24s cycles %9llu setup %.5fs loop %.5fs\n",
                         w.jobs[j].label.c_str(),
                         static_cast<unsigned long long>(
                             last_results[j].cycles),
                         median(job_setup[j]), minimum(job_loop[j]));
        }
        metrics = {
            {"sim_kcps", ratio(cycles, loop_s) / 1e3, "kcycles/s"},
            {"sim_kips", ratio(insts, loop_s) / 1e3, "kinsts/s"},
            {"wall_s", wall_s, "s"},
            {"setup_s", setup_s, "s"},
            {"peak_rss_mb", first_pass_rss, "MiB"},
            {"sim_ipc", simIpc(last_results), "insts/cycle"},
            {"seg_vs_ideal", segVsIdeal(last_results), "ratio"},
            {"jobs_ok_frac",
             1.0 - ratio(static_cast<double>(failed),
                         static_cast<double>(attempted)),
             "ratio"},
        };
    } else {
        const std::pair<const char *, const char *> layer_metrics[] = {
            {"workload.build_s", "s"},
            {"sim.construct_s", "s"},
            {"sim.prepare_s", "s"},
            {"sim.ckpt_restore_ratio", "ratio"},
            {"sim.collect_s", "s"},
            {"sim.json_write_s", "s"},
            {"sim.sweep_busy_frac", "ratio"},
            {"isa.warm_minsts_per_s", "Minsts/s"},
            {"isa.bb_trace_hit_ratio", "ratio"},
            {"core.ns_per_cycle", "ns"},
            {"core.tick_ns_p50", "ns"},
            {"core.tick_ns_p99", "ns"},
            {"core.idle_tick_frac", "ratio"},
            {"core.idle_tick_time_frac", "ratio"},
            {"core.wrong_path_frac", "ratio"},
            {"core.squashes_per_kinst", "1/kinsts"},
            {"iq.promote_ns_per_tick", "ns"},
            {"iq.deliver_ns_per_tick", "ns"},
            {"iq.countdown_ns_per_tick", "ns"},
            {"iq.issue_ns_per_tick", "ns"},
            {"iq.dispatch_ns_per_tick", "ns"},
            {"iq.work.signal_deliveries", "1/cycle"},
            {"iq.work.plan_calls", "1/cycle"},
            {"iq.work.segments_scanned", "1/cycle"},
            {"iq.work.lane_words_touched", "1/cycle"},
            {"iq.issued_per_cycle", "insts/cycle"},
            {"iq.occupancy_avg", "insts"},
            {"iq.dispatch_stall_frac", "ratio"},
            {"iq.avg_chains", "chains"},
            {"mem.l1d_miss_rate", "ratio"},
            {"mem.l1d_delayed_hit_frac", "ratio"},
            {"mem.l2_miss_rate", "ratio"},
            {"mem.mshr_full_stalls_per_kcycle", "1/kcycles"},
            {"branch.mispredict_rate", "ratio"},
            {"branch.hmp_accuracy", "ratio"},
            {"branch.hmp_coverage", "ratio"},
            {"branch.lrp_mispredict_rate", "ratio"},
            {"self.bench_s", "s"},
            {"self.workload_s", "s"},
            {"self.sim_s", "s"},
            {"self.core_s", "s"},
            {"trace.overhead_frac", "ratio"},
        };
        for (const auto &[name, unit] : layer_metrics)
            metrics.push_back({name, series.median(name), unit});
        const std::string span_path = args.outDir + "/spans-" +
                                      args.workload + "-" +
                                      std::to_string(args.seed) + ".json";
        if (!tracer.write(span_path)) {
            std::printf("ERROR: could not write %s\n", span_path.c_str());
            json_ok = false;
        }
    }

    const bool correct = failed == 0 && digests_agree && json_ok;
    printResult(correct, attempted, failed, metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
