/**
 * @file
 * Reproduces the numeric claims embedded in the paper's prose
 * (sections 4.4, 4.5 and 6.1):
 *
 *  - the hit/miss predictor achieves >98% accuracy on hit predictions
 *    while covering ~83% of actual hits;
 *  - ~35% of instructions have two outstanding operands in different
 *    chains;
 *  - loads account for ~65% of chains in the base configuration;
 *  - the deadlock condition arises in ~0.05% of cycles.
 */

#include <cmath>
#include <cstdio>
#include <limits>

#include "bench_util.hh"

using namespace sciq;
using namespace sciq::bench;

namespace {

/**
 * Mean over the finite samples only: undefined rates (NaN on runs with
 * no eligible events) would otherwise poison the cross-workload
 * average.
 */
struct FiniteMean
{
    double sum = 0;
    unsigned n = 0;

    void
    add(double v)
    {
        if (std::isfinite(v)) {
            sum += v;
            ++n;
        }
    }

    double
    value() const
    {
        return n ? sum / n : std::numeric_limits<double>::quiet_NaN();
    }
};

/** Print one percentage cell, or n/a for an undefined rate. */
void
cell(double v)
{
    if (std::isfinite(v))
        std::printf(" %9.2f", 100.0 * v);
    else
        std::printf(" %9s", "n/a");
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseArgs(argc, argv, workloadNames(), {"iq_size"});
    const auto kIqSize = static_cast<unsigned>(readArgsOrExit(
        [&] { return args.raw.getCount("iq_size", 512, 1); }));

    std::printf("Prose statistics, %u-entry segmented IQ\n\n", kIqSize);
    std::printf("%-9s | %9s %9s | %9s %9s | %9s | %12s\n", "bench",
                "HMP acc%", "cover%", "2-chain%", "ld-heads%", "LRPmis%",
                "deadlock%%cyc");
    hr('-', 86);

    // HMP/LRP stats come from the comb config (both predictors in
    // use); two-outstanding and load-head fractions are properties
    // of the base policy.
    SweepBatch batch(args);
    for (const auto &wl : args.workloads) {
        batch.add(makeSegmentedConfig(kIqSize, 128, true, true, wl));
        batch.add(makeSegmentedConfig(kIqSize, -1, false, false, wl));
    }
    batch.run();

    FiniteMean acc, cov, two, heads, lrp_mean, dead;
    for (const auto &wl : args.workloads) {
        RunResult rc = batch.next();
        RunResult rb = batch.next();

        std::printf("%-9s |", wl.c_str());
        cell(rc.hmpAccuracy);
        cell(rc.hmpCoverage);
        std::printf(" |");
        cell(rb.twoOutstandingFrac);
        cell(rb.headsFromLoadsFrac);
        std::printf(" |");
        cell(rc.lrpMispredictRate);
        std::printf(" | %12.4f\n", 100.0 * rc.deadlockCycleFrac);
        std::fflush(stdout);
        acc.add(rc.hmpAccuracy);
        cov.add(rc.hmpCoverage);
        two.add(rb.twoOutstandingFrac);
        heads.add(rb.headsFromLoadsFrac);
        lrp_mean.add(rc.lrpMispredictRate);
        dead.add(rc.deadlockCycleFrac);
    }
    hr('-', 86);
    std::printf("%-9s |", "average");
    cell(acc.value());
    cell(cov.value());
    std::printf(" |");
    cell(two.value());
    cell(heads.value());
    std::printf(" |");
    cell(lrp_mean.value());
    std::printf(" | %12.4f\n", 100.0 * dead.value());

    std::printf("\nPaper reference: HMP accuracy >98%% with ~83%% hit "
                "coverage; ~35%% two-outstanding instructions;\n"
                "loads are ~65%% of chains; deadlock in ~0.05%% of "
                "cycles.\n");
    finishBench(args);
    return 0;
}
