/**
 * @file
 * Ablation A2: segment geometry at fixed total capacity.  The paper
 * fixes 32-entry segments ("the individual segments can be sized to
 * meet cycle-time requirements") and varies the count; this bench
 * sweeps the segment size at a fixed 512-entry queue, trading wakeup
 * complexity (segment size, i.e. attainable clock) against pipeline
 * depth and promotion latency.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace sciq;
using namespace sciq::bench;

int
main(int argc, char **argv)
{
    BenchArgs args = parseArgs(argc, argv,
                               {"swim", "mgrid", "gcc", "equake"},
                               {"iq_size"});
    const auto kIqSize = static_cast<unsigned>(readArgsOrExit(
        [&] { return args.raw.getCount("iq_size", 512, 1); }));
    const std::vector<unsigned> seg_sizes = {8, 16, 32, 64, 128};

    std::printf("Ablation: segment size at fixed %u-entry capacity "
                "(comb, 128 chains)\n\n",
                kIqSize);
    std::printf("%-9s", "bench");
    for (unsigned s : seg_sizes)
        std::printf(" %7u(%2u)", s, kIqSize / s);
    std::printf("   size(segments)\n");
    hr('-', 76);

    SweepBatch batch(args);
    for (const auto &wl : args.workloads) {
        for (unsigned s : seg_sizes) {
            SimConfig cfg =
                makeSegmentedConfig(kIqSize, 128, true, true, wl);
            cfg.core.iq.segmentSize = s;
            batch.add(std::move(cfg));
        }
    }
    batch.run();

    for (const auto &wl : args.workloads) {
        std::printf("%-9s", wl.c_str());
        for (unsigned s : seg_sizes) {
            (void)s;
            std::printf(" %11.3f", batch.next().ipc);
        }
        std::printf("\n");
    }
    std::printf("\nSmaller segments would clock faster (32-entry "
                "wakeup vs 512) but add pipeline stages;\nthis sweep "
                "shows the IPC cost side of that trade-off.\n");
    finishBench(args);
    return 0;
}
