/**
 * @file
 * Host-throughput bench: how many simulated kcycles per host second
 * the tick loop sustains.  This is the trajectory metric for the
 * ROADMAP's "fast as the hardware allows" goal -- each PR that touches
 * the scheduler appends a point (BENCH_PR3.json is the first).
 *
 * Runs are serial (jobs=1 by default) so wall-clock per run is not
 * polluted by sibling workers; every workload runs under each IQ
 * configuration and the per-config aggregate is
 * sum(cycles) / sum(host_seconds).
 *
 * Extra key=value arguments on top of bench_util.hh's standard set:
 *   repeats=N           timing repetitions per config, >= 1 (default 1;
 *                       the fastest repetition is reported)
 *   baseline_kcps=X     pre-change segmented-256 kcycles/s to compare
 *   baseline_label=S    provenance note for the baseline number
 *   trajectory_out=path write the trajectory-point JSON (speedup vs
 *                       baseline + per-config aggregates)
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/json.hh"

using namespace sciq;
using namespace sciq::bench;

namespace {

struct ConfigPoint
{
    std::string name;     ///< e.g. "segmented-256"
    std::string iqKind;
    unsigned iqSize;
    std::uint64_t cycles = 0;
    std::uint64_t insts = 0;
    double hostSeconds = 0.0;

    // Deterministic host-work counters (iq.work.*, segmented only).
    // Identical across repetitions, so accumulating them alongside the
    // wall-clock numbers costs nothing and pairs every kcycles/s figure
    // with its noise-free proxy.
    std::uint64_t sigDeliveries = 0;
    std::uint64_t planCalls = 0;
    std::uint64_t segsScanned = 0;
    std::uint64_t laneWords = 0;

    double kcps() const
    {
        return hostSeconds > 0.0 ? cycles / hostSeconds / 1e3 : 0.0;
    }
    double kips() const
    {
        return hostSeconds > 0.0 ? insts / hostSeconds / 1e3 : 0.0;
    }
};

void
writeTrajectory(const std::string &path,
                const std::vector<ConfigPoint> &points,
                double baseline_kcps, const std::string &baseline_label,
                const ConfigPoint *anchor)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "ERROR: could not write %s\n", path.c_str());
        return;
    }
    out << "{\n  \"bench\": \"bench_throughput\",\n";
    out << "  \"metric\": \"host_kcycles_per_sec\",\n";
    out << "  \"anchor_config\": \"segmented-256\",\n";
    out << "  \"baseline\": {\n    \"label\": ";
    json::writeString(out, baseline_label);
    out << ",\n    \"kcycles_per_sec\": ";
    json::writeNumber(out, baseline_kcps);
    out << "\n  },\n";
    out << "  \"current\": {\n    \"kcycles_per_sec\": ";
    json::writeNumber(out, anchor ? anchor->kcps() : 0.0);
    out << ",\n    \"speedup_vs_baseline\": ";
    json::writeNumber(out, (anchor && baseline_kcps > 0.0)
                               ? anchor->kcps() / baseline_kcps
                               : 0.0);
    out << "\n  },\n  \"configs\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const ConfigPoint &p = points[i];
        out << "    {\"config\": ";
        json::writeString(out, p.name);
        out << ", \"iq_kind\": ";
        json::writeString(out, p.iqKind);
        out << ", \"iq_size\": " << p.iqSize
            << ", \"cycles\": " << p.cycles
            << ", \"insts\": " << p.insts << ", \"host_seconds\": ";
        json::writeNumber(out, p.hostSeconds);
        out << ", \"kcycles_per_sec\": ";
        json::writeNumber(out, p.kcps());
        out << ", \"kinsts_per_sec\": ";
        json::writeNumber(out, p.kips());
        out << ", \"iq_work_signal_deliveries\": " << p.sigDeliveries
            << ", \"iq_work_plan_calls\": " << p.planCalls
            << ", \"iq_work_segments_scanned\": " << p.segsScanned
            << ", \"iq_work_lane_words_touched\": " << p.laneWords;
        out << "}" << (i + 1 == points.size() ? "\n" : ",\n");
    }
    out << "  ]\n}\n";
    std::fprintf(stderr, "wrote trajectory point to %s\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseArgs(argc, argv, workloadNames(),
                               {"repeats", "baseline_kcps",
                                "baseline_label", "trajectory_out"});
    // Timing fidelity: serial by default (jobs=1), unlike the sweep
    // benches that default to hardware concurrency.
    if (args.jobs == 0)
        args.jobs = 1;
    const auto [repeats, baseline_kcps] = readArgsOrExit([&] {
        return std::pair{
            static_cast<unsigned>(args.raw.getCount("repeats", 1, 1)),
            args.raw.getDouble("baseline_kcps", 0.0)};
    });
    const std::string baseline_label =
        args.raw.getString("baseline_label", "");
    const std::string trajectory_out =
        args.raw.getString("trajectory_out", "");

    struct ConfigSpec
    {
        std::string name;
        SimConfig cfg;
    };
    std::vector<ConfigSpec> specs;
    // segmented-512 is the 16-segment shape where promotion and chain
    // delivery dominate the tick.
    for (unsigned size : {64u, 256u, 512u}) {
        for (const std::string &wl : args.workloads) {
            specs.push_back({"segmented-" + std::to_string(size),
                             makeSegmentedConfig(size, 32, true, true,
                                                 wl)});
        }
    }
    // The evaluation's two largest segmented-512 groups, which the
    // 32-chain rows above do not represent.
    for (const std::string &wl : args.workloads) {
        specs.push_back({"segmented-512/base-unl",
                         makeSegmentedConfig(512, -1, false, false, wl)});
        specs.push_back({"segmented-512/comb-128",
                         makeSegmentedConfig(512, 128, true, true, wl)});
    }
    // ideal-512 is the MSHR-bound regime: a 512-entry window keeps the
    // L1D's MSHR file full on the memory-bound kernels.
    for (unsigned size : {256u, 512u}) {
        for (const std::string &wl : args.workloads) {
            specs.push_back({"ideal-" + std::to_string(size),
                             makeIdealConfig(size, wl)});
        }
    }

    std::printf("Host throughput (jobs=%u, repeats=%u)\n", args.jobs,
                repeats);
    hr();

    // Aggregate per configuration name, keeping the fastest repetition
    // of the whole batch (cycle counts are deterministic across
    // repetitions; only host time varies).
    std::vector<ConfigPoint> points;
    double best_seconds = 0.0;
    for (unsigned rep = 0; rep < repeats; ++rep) {
        SweepBatch batch(args);
        for (const ConfigSpec &s : specs)
            batch.add(s.cfg);
        batch.run();

        std::vector<ConfigPoint> rep_points;
        double rep_seconds = 0.0;
        for (const ConfigSpec &s : specs) {
            const RunResult &r = batch.next();
            rep_seconds += r.hostSeconds;
            ConfigPoint *p = nullptr;
            for (ConfigPoint &q : rep_points) {
                if (q.name == s.name)
                    p = &q;
            }
            if (!p) {
                rep_points.push_back(
                    {s.name, r.iqKind, r.iqSize, 0, 0, 0.0});
                p = &rep_points.back();
            }
            p->cycles += r.cycles;
            p->insts += r.insts;
            p->hostSeconds += r.hostSeconds;
            p->sigDeliveries += r.iqSignalDeliveries;
            p->planCalls += r.iqPlanCalls;
            p->segsScanned += r.iqSegmentsScanned;
            p->laneWords += r.iqLaneWordsTouched;
        }
        if (points.empty() || rep_seconds < best_seconds) {
            points = std::move(rep_points);
            best_seconds = rep_seconds;
        }
    }

    std::printf("%-22s %12s %12s %10s %12s %12s %14s %11s %14s %14s\n",
                "config", "cycles", "insts", "host s", "kcycles/s",
                "kinsts/s", "sig_deliveries", "plan_calls",
                "segs_scanned", "lane_words");
    const ConfigPoint *anchor = nullptr;
    for (const ConfigPoint &p : points) {
        std::printf("%-22s %12llu %12llu %10.3f %12.1f %12.1f %14llu "
                    "%11llu %14llu %14llu\n",
                    p.name.c_str(),
                    static_cast<unsigned long long>(p.cycles),
                    static_cast<unsigned long long>(p.insts),
                    p.hostSeconds, p.kcps(), p.kips(),
                    static_cast<unsigned long long>(p.sigDeliveries),
                    static_cast<unsigned long long>(p.planCalls),
                    static_cast<unsigned long long>(p.segsScanned),
                    static_cast<unsigned long long>(p.laneWords));
        if (p.name == "segmented-256")
            anchor = &p;
    }
    hr();
    std::printf("segmented-N: HMP+LRP, 32 chains; segmented-512/base-unl: "
                "base policy, unlimited chains;\nsegmented-512/comb-128: "
                "HMP+LRP, 128 chains\n");
    if (anchor && baseline_kcps > 0.0) {
        std::printf("segmented-256: %.1f kcycles/s vs baseline %.1f "
                    "(%s) -> %.2fx\n",
                    anchor->kcps(), baseline_kcps,
                    baseline_label.c_str(),
                    anchor->kcps() / baseline_kcps);
    }

    if (!trajectory_out.empty()) {
        writeTrajectory(trajectory_out, points, baseline_kcps,
                        baseline_label, anchor);
    }
    finishBench(args);
    return 0;
}
