/**
 * @file
 * M1: google-benchmark microbenchmarks of the simulator's hot
 * components - useful when tuning the simulator itself (the per-cycle
 * cost of the segmented IQ's tick dominates large-queue runs).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "branch/branch_predictor.hh"
#include "branch/hit_miss_predictor.hh"
#include "common/json.hh"
#include "common/random.hh"
#include "core/ooo_core.hh"
#include "iq/segmented_iq.hh"
#include "isa/functional_core.hh"
#include "mem/hierarchy.hh"
#include "sim/sim_config.hh"
#include "workload/workloads.hh"

using namespace sciq;

namespace {

void
BM_FunctionalCoreStep(benchmark::State &state)
{
    WorkloadParams wp;
    wp.iterations = 1 << 20;
    Program prog = buildSwim(wp);
    FunctionalCore core(prog);
    for (auto _ : state) {
        if (core.halted())
            state.SkipWithError("program ended early");
        core.step();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FunctionalCoreStep);

void
BM_CacheHit(benchmark::State &state)
{
    MemHierarchy mem;
    // Warm one line.
    mem.dcache().warmInsert(0x8000);
    Cycle cycle = 0;
    for (auto _ : state) {
        mem.dcache().access(0x8000, false, ++cycle,
                            [](Cycle, AccessOutcome) {});
        mem.tick(cycle + 10);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheHit);

void
BM_BranchPredict(benchmark::State &state)
{
    HybridBranchPredictor bp;
    Random rng(1);
    Addr pc = 0x1000;
    for (auto _ : state) {
        auto snap = bp.snapshot();
        bool pred = bp.predict(pc);
        benchmark::DoNotOptimize(pred);
        bp.update(pc, rng.chance(0.5), snap);
        pc = 0x1000 + (rng.next() & 0xFFC);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BranchPredict);

void
BM_HitMissPredict(benchmark::State &state)
{
    HitMissPredictor hmp;
    Random rng(2);
    for (auto _ : state) {
        Addr pc = 0x1000 + (rng.next() & 0xFFC);
        bool hit = hmp.peekHit(pc);
        benchmark::DoNotOptimize(hit);
        hmp.update(pc, rng.chance(0.9));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HitMissPredict);

/** Whole-pipeline cycles/second for each IQ design on swim. */
void
BM_CoreTick(benchmark::State &state)
{
    const auto kind = static_cast<IqKind>(state.range(0));
    WorkloadParams wp;
    wp.iterations = 1 << 20;  // effectively unbounded for the bench
    Program prog = buildSwim(wp);
    CoreParams params;
    params.iqKind = kind;
    params.iq.numEntries = 512;
    params.iq.maxChains = 128;
    params.iq.useHmp = true;
    params.iq.useLrp = true;
    OooCore core(prog, params);
    for (auto _ : state)
        core.tick();
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    state.SetLabel(iqKindName(kind));
}
BENCHMARK(BM_CoreTick)
    ->Arg(static_cast<int>(IqKind::Ideal))
    ->Arg(static_cast<int>(IqKind::Segmented))
    ->Arg(static_cast<int>(IqKind::Prescheduled))
    ->Arg(static_cast<int>(IqKind::Fifo))
    ->Unit(benchmark::kMicrosecond);

/**
 * Host cost of the front end: the whole pipeline on gcc, whose
 * mispredicts make about three of every four fetched instructions
 * wrong-path, at the 64-entry shape of each IQ design in the
 * int64-branchy benchmark workload.  Items are fetched instructions,
 * wrong path included, so the rate reads as host time per fetched
 * instruction.
 */
void
BM_CoreTickGcc64(benchmark::State &state)
{
    const auto kind = static_cast<IqKind>(state.range(0));
    SimConfig cfg;
    switch (kind) {
      case IqKind::Ideal:
        cfg = makeIdealConfig(64, "gcc");
        break;
      case IqKind::Segmented:
        cfg = makeSegmentedConfig(64, 128, true, true, "gcc");
        break;
      case IqKind::Prescheduled:
        // 16-entry issue buffer + 4 lines of 12 = 64 entries.
        cfg = makePrescheduledConfig(64, "gcc");
        cfg.core.iq.issueBufferSize = 16;
        break;
      case IqKind::Fifo:
        cfg = makeFifoConfig(8, 8, "gcc");
        break;
    }
    WorkloadParams wp;
    wp.iterations = 1 << 20;  // effectively unbounded for the bench
    const Program prog = buildGcc(wp);
    // Every iteration replays the same fixed tick window from a fresh
    // core, so two builds are timed on identical simulated work.
    constexpr int kTicks = 20000;
    double fetched = 0.0;
    for (auto _ : state) {
        state.PauseTiming();  // construction excluded
        OooCore core(prog, cfg.core);
        state.ResumeTiming();
        for (int t = 0; t < kTicks; ++t)
            core.tick();
        benchmark::DoNotOptimize(core.committedCount());
        fetched += core.fetchedInsts.value();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(fetched));
    state.SetLabel(iqKindName(kind));
}
BENCHMARK(BM_CoreTickGcc64)
    ->Arg(static_cast<int>(IqKind::Ideal))
    ->Arg(static_cast<int>(IqKind::Segmented))
    ->Arg(static_cast<int>(IqKind::Prescheduled))
    ->Arg(static_cast<int>(IqKind::Fifo))
    ->Unit(benchmark::kMillisecond);

/**
 * Where inside SegmentedIq::tick the time goes.  Runs a core for a
 * fixed tick count with the IQ's substage profiling enabled and
 * reports the per-substage split (promotion / signal delivery /
 * countdown / issue select / dispatch) plus the deterministic
 * iq.work.* counters.
 */
struct SubstageSample
{
    SegmentedIq::TickProfile prof;
    SegmentedIq::WorkCounters work;
    unsigned iqSize = 0;
};

/**
 * @param chains chain budget, -1 for unlimited
 * @param hmp_lrp HMP+LRP policy; false for the base policy
 */
SubstageSample
runSegmentedSubstages(unsigned iq_size, std::uint64_t ticks,
                      const std::string &workload = "swim", int chains = 128,
                      bool hmp_lrp = true)
{
    SimConfig cfg =
        makeSegmentedConfig(iq_size, chains, hmp_lrp, hmp_lrp, workload);
    cfg.wl.iterations = 1 << 20;  // effectively unbounded for the bench
    const Program prog = buildWorkload(workload, cfg.wl);
    OooCore core(prog, cfg.core);
    auto *seg = dynamic_cast<SegmentedIq *>(&core.iqUnit());
    seg->setProfiling(true);
    for (std::uint64_t t = 0; t < ticks; ++t)
        core.tick();
    SubstageSample s;
    s.prof = seg->profile();
    s.work = seg->workCounters();
    s.iqSize = iq_size;
    return s;
}

/**
 * Arguments: IQ entries, workload (index into workloadNames()), chain
 * budget (-1: unlimited) and policy (1: HMP+LRP, 0: base).
 */
void
BM_SegmentedTickSubstages(benchmark::State &state)
{
    const auto iq_size = static_cast<unsigned>(state.range(0));
    const std::string workload =
        workloadNames().at(static_cast<std::size_t>(state.range(1)));
    const auto chains = static_cast<int>(state.range(2));
    const bool hmp_lrp = state.range(3) != 0;
    SubstageSample s;
    std::uint64_t total_ticks = 0;
    for (auto _ : state) {
        constexpr std::uint64_t kTicks = 20000;
        s = runSegmentedSubstages(iq_size, kTicks, workload, chains,
                                  hmp_lrp);
        total_ticks += kTicks;
    }
    const double total = s.prof.promoteSec + s.prof.deliverSec +
                         s.prof.countdownSec + s.prof.issueSec +
                         s.prof.dispatchSec;
    auto frac = [&](double sec) { return total > 0.0 ? sec / total : 0.0; };
    state.counters["promote_frac"] = frac(s.prof.promoteSec);
    state.counters["deliver_frac"] = frac(s.prof.deliverSec);
    state.counters["countdown_frac"] = frac(s.prof.countdownSec);
    state.counters["issue_frac"] = frac(s.prof.issueSec);
    state.counters["dispatch_frac"] = frac(s.prof.dispatchSec);
    state.SetItemsProcessed(static_cast<std::int64_t>(total_ticks));
    state.SetLabel(workload + (hmp_lrp ? " hmp+lrp" : " base") + " chains=" +
                   (chains < 0 ? std::string("unlimited")
                               : std::to_string(chains)));
}

/** workloadNames() index of `name`, for benchmark arguments. */
std::int64_t
workloadArg(const std::string &name)
{
    const auto &names = workloadNames();
    return std::find(names.begin(), names.end(), name) - names.begin();
}

// HMP+LRP with 128 chains, and at 512 entries also the base policy with
// unlimited chains: the evaluation's two largest segmented-512 groups.
BENCHMARK(BM_SegmentedTickSubstages)
    ->ArgNames({"iq", "wl", "chains", "hmp_lrp"})
    ->Args({256, workloadArg("swim"), 128, 1})
    ->Args({512, workloadArg("swim"), 128, 1})
    ->Args({512, workloadArg("swim"), -1, 0})
    ->Unit(benchmark::kMillisecond);

/**
 * json_out= payload: one substage-profile record per iq_size point,
 * with absolute seconds, ns/tick, fractions, and the exact iq.work.*
 * counters for the same tick window.
 */
void
writeSubstageJson(const std::string &path)
{
    constexpr std::uint64_t kTicks = 50000;
    std::vector<SubstageSample> samples;
    for (unsigned size : {64u, 256u, 512u})
        samples.push_back(runSegmentedSubstages(size, kTicks));

    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "ERROR: could not write %s\n", path.c_str());
        return;
    }
    out << "{\n  \"bench\": \"micro_components.substages\",\n"
        << "  \"workload\": \"swim\",\n  \"ticks\": " << kTicks
        << ",\n  \"points\": [\n";
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const SubstageSample &s = samples[i];
        const double total = s.prof.promoteSec + s.prof.deliverSec +
                             s.prof.countdownSec + s.prof.issueSec +
                             s.prof.dispatchSec;
        auto stage = [&](const char *name, double sec, bool last = false) {
            out << "        {\"stage\": \"" << name << "\", \"seconds\": ";
            json::writeNumber(out, sec);
            out << ", \"ns_per_tick\": ";
            json::writeNumber(
                out, s.prof.ticks ? sec * 1e9 / s.prof.ticks : 0.0);
            out << ", \"frac\": ";
            json::writeNumber(out, total > 0.0 ? sec / total : 0.0);
            out << "}" << (last ? "\n" : ",\n");
        };
        out << "    {\"iq_size\": " << s.iqSize << ",\n"
            << "      \"substages\": [\n";
        stage("promote", s.prof.promoteSec);
        stage("deliver", s.prof.deliverSec);
        stage("countdown", s.prof.countdownSec);
        stage("issue_select", s.prof.issueSec);
        stage("dispatch", s.prof.dispatchSec, true);
        out << "      ],\n      \"work\": {"
            << "\"signal_deliveries\": " << s.work.signalDeliveries
            << ", \"plan_calls\": " << s.work.planCalls
            << ", \"segments_scanned\": " << s.work.segmentsScanned
            << ", \"lane_words_touched\": " << s.work.laneWordsTouched
            << "}}" << (i + 1 == samples.size() ? "\n" : ",\n");
    }
    out << "  ]\n}\n";
    std::fprintf(stderr, "wrote substage profile to %s\n", path.c_str());
}

} // namespace

/**
 * Standard BENCHMARK_MAIN plus one repo-style key=value argument:
 *   json_out=path  write the SegmentedIq tick-substage profile (runs
 *                  a dedicated profiling pass after the benchmarks)
 */
int
main(int argc, char **argv)
{
    std::string json_out;
    std::vector<char *> bench_argv;
    for (int i = 0; i < argc; ++i) {
        if (std::strncmp(argv[i], "json_out=", 9) == 0) {
            json_out = argv[i] + 9;
            continue;
        }
        bench_argv.push_back(argv[i]);
    }
    int bench_argc = static_cast<int>(bench_argv.size());
    benchmark::Initialize(&bench_argc, bench_argv.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               bench_argv.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (!json_out.empty())
        writeSubstageJson(json_out);
    return 0;
}
