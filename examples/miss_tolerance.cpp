/**
 * @file
 * Demonstrates the paper's central claim: the segmented IQ's chains
 * let a large window tolerate unpredictable cache-miss latencies.
 *
 * Two contrasting workloads run across queue designs at equal size:
 *   swim  - streaming FP with abundant memory-level parallelism: the
 *           bigger effective window, the more misses overlap;
 *   gcc   - branchy integer code in which the window barely matters.
 *
 * Compare how much of the ideal queue's speedup each realistic design
 * retains, and how the prescheduling baseline (which freezes its
 * schedule at dispatch) falls behind when latencies mispredict.
 *
 * Usage: miss_tolerance [iters=N] [iq_size=N]
 */

#include <cstdio>
#include <string>
#include <utility>

#include "common/config.hh"
#include "sim/simulator.hh"

using namespace sciq;

namespace {

/**
 * Slots of the prescheduled design compared at IQ size `n`: its
 * 32-entry issue buffer plus at least n + 32 scheduling slots, rounded
 * up to whole 12-wide lines (320 at the default 256).
 */
unsigned
prescheduledSlots(unsigned n)
{
    return 32 + 12 * ((n + 32 + 11) / 12);
}

} // namespace

int
main(int argc, char **argv)
{
    ConfigMap args = ConfigMap::fromArgs(argc, argv);
    if (const std::string bad = args.unknownKeyMessage({"iq_size", "iters"});
        !bad.empty()) {
        std::fprintf(stderr, "ERROR: %s\n", bad.c_str());
        return 2;
    }
    const auto [size, iters] = readArgsOrExit([&] {
        const auto n =
            static_cast<unsigned>(args.getCount("iq_size", 256, 1));
        // The sized designs below must be buildable at this size.
        makeSegmentedConfig(n, 128, true, true, "swim")
            .core.checkIqGeometry();
        makePrescheduledConfig(prescheduledSlots(n), "swim")
            .core.checkIqGeometry();
        return std::pair{
            n, static_cast<std::uint64_t>(args.getCount("iters", 3000))};
    });

    std::printf("Window-size tolerance of cache misses (IQ size %u)\n\n",
                size);

    for (const char *wl : {"swim", "gcc"}) {
        std::printf("--- %s ---\n", wl);

        auto run = [&](SimConfig cfg, const char *label) {
            cfg.wl.iterations = iters;
            cfg.validate = false;
            RunResult r = runSim(cfg);
            std::printf("  %-22s ipc %6.3f   (cycles %9llu)\n", label,
                        r.ipc,
                        static_cast<unsigned long long>(r.cycles));
            return r.ipc;
        };

        double base32 = run(makeIdealConfig(32, wl),
                            "conventional 32-entry");
        double ideal = run(makeIdealConfig(size, wl), "ideal (big)");
        double seg = run(makeSegmentedConfig(size, 128, true, true, wl),
                         "segmented comb/128");
        double pre = run(makePrescheduledConfig(prescheduledSlots(size), wl),
                         "prescheduled");
        double fifo = run(makeFifoConfig(size / 32, 32, wl),
                          "dependence FIFOs");

        std::printf("\n  big-window speedup over 32-entry: ideal %.2fx, "
                    "segmented %.2fx,\n"
                    "  prescheduled %.2fx, FIFOs %.2fx\n\n",
                    ideal / base32, seg / base32, pre / base32,
                    fifo / base32);
    }

    std::printf("Takeaway: on swim the segmented IQ retains most of the "
                "ideal window's speedup while the\nquasi-static designs "
                "lose it to latency mispredictions; on gcc no design "
                "helps, because the\nwindow is not the bottleneck - "
                "matching Figures 2 and 3 of the paper.\n");
    return 0;
}
