/**
 * @file
 * Shared helpers for the evaluation-reproduction benches: argument
 * handling, run-time scaling, parallel sweep execution and fixed-width
 * table output.
 *
 * Every bench accepts key=value arguments:
 *   quick=1      reduce iteration counts ~4x for a fast smoke pass
 *   workloads=a,b,c   restrict to a subset of benchmarks
 *   jobs=N       sweep worker threads (default: hardware concurrency)
 *   bench_out=path    also write every result as JSON to `path`
 *   artifact_dir=path failure artifacts (pipeline dumps) land here
 * plus the SimConfig keys in kSimKeys, which SimConfig::apply reads
 * into every configuration (`runner help=1` lists their forms):
 *   iters=N      workload iteration count (0 = kernel default)
 *   ff=N         fast-forward N instructions before the timed run;
 *                the sweep's jobs share each warm-up in memory
 *   audit=1, audit_panic=1, watchdog_cycles=N,
 *   deadline_sec=S    as in SimConfig
 *
 * An unknown key or workload, a token that is not key=value and a bad
 * value exit 2, so a typo'd override fails loudly instead of silently
 * measuring the wrong configuration.  A bench reads its own keys
 * (iq_size=N, ...) through readArgsOrExit, which exits 2 the same way.
 */

#ifndef SCIQ_BENCH_BENCH_UTIL_HH
#define SCIQ_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "sim/checkpoint.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "workload/workloads.hh"

namespace sciq {
namespace bench {

/** The SimConfig keys every bench passes on to SimConfig::apply. */
inline const std::vector<std::string> kSimKeys = {
    "iters", "ff", "audit", "audit_panic", "watchdog_cycles", "deadline_sec",
};

struct BenchArgs
{
    bool quick = false;
    unsigned jobs = 0;        ///< 0 = hardware concurrency
    std::string benchOut;     ///< JSON output path ("" = none)
    std::string artifactDir;  ///< failure artifacts ("" = env/off)
    std::vector<std::string> workloads;
    ConfigMap raw;
    ConfigMap simKeys;        ///< the kSimKeys entries of raw

    /** Every result produced through SweepBatch, for bench_out. */
    std::vector<RunResult> collected;
};

/**
 * Parse bench command-line arguments.  `extra_known` lists the keys a
 * particular bench reads beyond the shared set (e.g. iq_size); any
 * other key, an unknown workload and a bad value of a shared key exit
 * 2.
 */
inline BenchArgs
parseArgs(int argc, char **argv, std::vector<std::string> default_wls,
          std::vector<std::string> extra_known = {})
{
    BenchArgs args;
    args.raw = ConfigMap::fromArgs(argc, argv);

    std::vector<std::string> known = {"quick", "workloads", "jobs",
                                      "bench_out", "artifact_dir"};
    known.insert(known.end(), kSimKeys.begin(), kSimKeys.end());
    known.insert(known.end(), extra_known.begin(), extra_known.end());
    for (const std::string &key : kSimKeys) {
        if (args.raw.has(key))
            args.simKeys.set(key, args.raw.getString(key));
    }
    const std::string wls = args.raw.getString("workloads", "");
    std::istringstream list(wls);
    for (std::string tok; std::getline(list, tok, ',');) {
        // Skip empty tokens from stray/trailing commas ("a,,b", "a,b,")
        // instead of passing them on to workload lookup.
        if (!tok.empty())
            args.workloads.push_back(tok);
    }
    if (wls.empty())
        args.workloads = std::move(default_wls);

    readArgsOrExit([&] {
        if (const std::string bad = args.raw.unknownKeyMessage(known);
            !bad.empty())
            throw ConfigError(bad);
        SimConfig().apply(args.simKeys);  // reject bad values up front
        for (const std::string &wl : args.workloads)
            checkWorkloadName(wl);
        args.quick = args.raw.getBool("quick", false);
        args.jobs = static_cast<unsigned>(args.raw.getCount("jobs", 0));
    });
    args.benchOut = args.raw.getString("bench_out", "");
    args.artifactDir = args.raw.getString("artifact_dir", "");
    return args;
}

/** Apply the bench-wide overrides to one configuration. */
inline void
applyArgs(SimConfig &cfg, const BenchArgs &args)
{
    cfg.wl.iterations = 0;  // the kernel's calibrated count
    cfg.validate = false;   // benches measure; tests validate
    cfg.apply(args.simKeys);
    if (args.quick && cfg.wl.iterations == 0) {
        // Quick mode: a fixed reduced iteration count (roughly a
        // quarter of the kernels' calibrated defaults).
        cfg.wl.iterations = 1500;
    }
}

/**
 * Deferred-execution batch over the SweepRunner.  A bench first add()s
 * every configuration it will report, then calls run() once so all of
 * them execute in parallel, then formats its tables from the results,
 * taken with next() in add() order.
 */
class SweepBatch
{
  public:
    explicit SweepBatch(BenchArgs &args) : args_(args) {}

    /** Queue one configuration. */
    void
    add(SimConfig cfg)
    {
        applyArgs(cfg, args_);
        configs_.push_back(std::move(cfg));
    }

    /** Execute every queued configuration (jobs= worker threads). */
    void
    run()
    {
        // One shared warm-up cache per sweep: each distinct warm-up
        // (workload x ff length) executes once and every other
        // configuration copies its warm state.
        bool anyFf = false;
        for (const SimConfig &cfg : configs_)
            anyFf = anyFf || cfg.fastForward > 0;
        if (anyFf) {
            auto cache = std::make_shared<CheckpointCache>();
            for (SimConfig &cfg : configs_) {
                if (!cfg.ckptCache)
                    cfg.ckptCache = cache;
            }
        }
        SweepRunner runner(args_.jobs);
        SweepRunner::Options options;
        options.artifactDir = args_.artifactDir;
        results_ = runner.run(configs_, options);
        for (const RunResult &r : results_) {
            if (!r.outcome.ok()) {
                std::fprintf(
                    stderr, "WARNING: %s/%s %s: [%s] %s\n",
                    r.workload.c_str(), r.iqKind.c_str(),
                    jobStatusName(r.outcome.status),
                    errorCodeName(r.outcome.code),
                    r.outcome.message.c_str());
            } else if (!r.haltedCleanly) {
                std::fprintf(
                    stderr,
                    "WARNING: %s/%s did not halt within the cycle cap\n",
                    r.workload.c_str(), r.iqKind.c_str());
            }
        }
        args_.collected.insert(args_.collected.end(), results_.begin(),
                               results_.end());
    }

    /** Consume results in add() order. */
    const RunResult &next() { return results_[cursor_++]; }

  private:
    BenchArgs &args_;
    std::vector<SimConfig> configs_;
    std::vector<RunResult> results_;
    std::size_t cursor_ = 0;
};

/** Write collected results to bench_out (if requested); end of main. */
inline void
finishBench(const BenchArgs &args)
{
    if (args.benchOut.empty())
        return;
    if (writeResultsJson(args.benchOut, args.collected)) {
        std::fprintf(stderr, "wrote %zu results to %s\n",
                     args.collected.size(), args.benchOut.c_str());
    } else {
        std::fprintf(stderr, "ERROR: could not write %s\n",
                     args.benchOut.c_str());
    }
}

inline void
hr(char c = '-', int width = 92)
{
    for (int i = 0; i < width; ++i)
        std::putchar(c);
    std::putchar('\n');
}

} // namespace bench
} // namespace sciq

#endif // SCIQ_BENCH_BENCH_UTIL_HH
