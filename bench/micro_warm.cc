/**
 * @file
 * Warming-throughput micro-benchmark for the basic-block cache
 * (DESIGN.md §14, BENCH_PR6.json).
 *
 * For every workload it measures functional-warming throughput
 * (fastForward with cache/predictor training) and pure functional
 * execution throughput (FunctionalCore::run, no training), each with
 * the step() reference interpreter (a FunctionalCore built without the
 * block cache) and with the basic-block cache, best-of `repeats` timed
 * runs.
 *
 * It also times the per-job set-up path a fast-forwarded sweep job
 * pays outside the core loop (DESIGN.md §12), on the workload's
 * default-length program warmed to 12k instructions before HALT:
 * Program::load into an empty memory, WarmState::capture (every warm
 * state kept alive until the rounds end, as a sweep's CheckpointCache
 * keeps them, so each capture writes fresh memory), WarmState::adopt
 * into a freshly built core (built without the program image, as
 * Simulator builds a fast-forwarding core), and golden validation
 * (GoldenState::run over the whole program, then equalContents).  A
 * sweep runs the golden once per input and shares it (DESIGN.md §10);
 * a job outside a sweep pays it in full.  Each kernel's set-up rows are
 * timed in a child process of its own, one child at a time, all forked
 * before any warming run: every kernel starts from the same heap, so
 * its rows do not depend on which kernels ran before it.  The child
 * never trims its heap, so the best-of rounds after the first copy
 * into memory already mapped, as in a long-running sweep process.
 *
 * Arguments:
 *   warm_insts=N  instructions per timed run (default 2m; quick: 400k;
 *                 accepts k/m/g suffixes)
 *   repeats=N     timed repetitions, best-of, >= 1 (default 3; quick: 2)
 *   workloads=a,b,c   subset (default: all eight)
 *   quick=1       shrink for a smoke pass
 *   json_out=path machine-readable results (BENCH_PR6.json source)
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench_util.hh"
#include "common/json.hh"
#include "core/ooo_core.hh"
#include "isa/functional_core.hh"
#include "sim/checkpoint.hh"
#include "sim/fast_forward.hh"
#include "sim/simulator.hh"

using namespace sciq;
using namespace sciq::bench;

namespace {

using Clock = std::chrono::steady_clock;

struct WorkloadNumbers
{
    std::string workload;
    std::uint64_t warmInsts = 0;
    double warmStepIps = 0.0;  ///< fastForward, step() reference
    double warmBbIps = 0.0;    ///< fastForward, block cache
    double runStepIps = 0.0;   ///< pure run(), step() reference
    double runBbIps = 0.0;     ///< pure run(), block cache
    std::uint64_t bbBlocks = 0;
    std::uint64_t bbOpsCached = 0;
    std::uint64_t bbTraceHits = 0;
    std::uint64_t bbSuccHits = 0;
    double loadS = 0.0;      ///< Program::load
    double saveS = 0.0;      ///< WarmState::capture
    double restoreS = 0.0;   ///< WarmState::adopt
    double validateS = 0.0;  ///< GoldenState::run + equalContents
    double imageKib = 0.0;   ///< the warm state's memory image

    double warmSpeedup() const
    {
        return warmStepIps > 0 ? warmBbIps / warmStepIps : 0.0;
    }
    double runSpeedup() const
    {
        return runStepIps > 0 ? runBbIps / runStepIps : 0.0;
    }
};

double
seconds(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Iteration count that keeps the program running past `insts`
 * instructions, calibrated from one cold run with small iterations.
 */
std::uint64_t
calibrateIters(const std::string &workload, std::uint64_t insts)
{
    WorkloadParams wl;
    wl.iterations = 200;
    Program prog = buildWorkload(workload, wl);
    FunctionalCore probe(prog);
    probe.run();
    const double perIter =
        static_cast<double>(probe.instCount()) / 200.0;
    // 1.5x margin so the timed region never includes the HALT ramp.
    const auto iters = static_cast<std::uint64_t>(
        1.5 * static_cast<double>(insts) / perIter) + 1;
    return std::max<std::uint64_t>(iters, 200);
}

CoreParams
coreParams()
{
    SimConfig cfg = makeSegmentedConfig(128, 64, true, true, "swim");
    return cfg.core;
}

/** Best-of-`repeats` seconds of `body()`, after an untimed `setup()`. */
template <typename Setup, typename Body>
double
bestOf(unsigned repeats, Setup setup, Body body)
{
    double best = 0.0;
    for (unsigned rep = 0; rep < repeats; ++rep) {
        auto state = setup();
        const auto t0 = Clock::now();
        body(state);
        const double dt = seconds(t0);
        best = rep == 0 ? dt : std::min(best, dt);
    }
    return best;
}

/** Times the set-up path of one fast-forwarded sweep job. */
void
measureSetup(WorkloadNumbers &n, unsigned repeats)
{
    SimConfig cfg = makeSegmentedConfig(128, 64, true, true, n.workload);
    const Program prog = buildWorkload(cfg.workload, cfg.wl);
    FunctionalCore finished(prog);
    const std::uint64_t len = finished.run();
    constexpr std::uint64_t kTail = 12000;
    cfg.fastForward = len > 2 * kTail ? len - kTail : len / 2;

    auto noSetup = [] { return 0; };

    n.loadS = bestOf(repeats, [] { return SparseMemory(); },
                     [&](SparseMemory &m) { prog.load(m); });

    FunctionalCore warm(prog);
    OooCore warmed(prog, cfg.core);
    const FastForwardStats ff =
        fastForward(warm, warmed, cfg.fastForward);
    const std::uint64_t checksum = prog.checksum();
    std::vector<WarmState> states;
    states.reserve(repeats);
    n.saveS = bestOf(repeats, noSetup, [&](auto &) {
        states.push_back(WarmState::capture(warm, warmed, ff, checksum));
    });
    const WarmState &state = states.back();
    n.imageKib = static_cast<double>(state.func.memory.numPages() *
                                     SparseMemory::kPageSize) /
                 1024.0;

    n.restoreS = bestOf(
        repeats,
        [&] {
            return std::make_unique<OooCore>(prog, cfg.core,
                                             /*load_image=*/false);
        },
        [&](std::unique_ptr<OooCore> &core) { state.adopt(*core); });

    n.validateS = bestOf(repeats, noSetup, [&](auto &) {
        const GoldenState golden = GoldenState::run(prog, len);
        if (!golden.memory.equalContents(finished.memory()))
            std::fprintf(stderr, "ERROR: %s golden replay diverged\n",
                         n.workload.c_str());
    });
}

/**
 * measureSetup in a forked child, which passes the set-up rows back
 * through a pipe; false (with a message) if the child failed.
 */
bool
measureSetupInChild(WorkloadNumbers &n, unsigned repeats)
{
    int fds[2];
    if (pipe(fds) != 0) {
        std::perror("micro_warm: pipe");
        return false;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("micro_warm: fork");
        return false;
    }
    double rows[5];
    if (pid == 0) {
        close(fds[0]);
        // Keep freed heap mapped: otherwise each round's freed core
        // trims the heap top and the next adopt times first-touch page
        // faults (swim: ~290 per round) rather than the copy.
        mallopt(M_TRIM_THRESHOLD, 1 << 30);
        measureSetup(n, repeats);
        rows[0] = n.loadS;
        rows[1] = n.saveS;
        rows[2] = n.restoreS;
        rows[3] = n.validateS;
        rows[4] = n.imageKib;
        const bool ok = write(fds[1], rows, sizeof rows) ==
                        static_cast<ssize_t>(sizeof rows);
        _exit(ok ? 0 : 1);
    }
    close(fds[1]);
    std::size_t got = 0;
    while (got < sizeof rows) {
        const ssize_t r = read(fds[0], reinterpret_cast<char *>(rows) + got,
                               sizeof rows - got);
        if (r <= 0)
            break;
        got += static_cast<std::size_t>(r);
    }
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (got != sizeof rows || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
        std::fprintf(stderr, "ERROR: %s set-up measurement failed\n",
                     n.workload.c_str());
        return false;
    }
    n.loadS = rows[0];
    n.saveS = rows[1];
    n.restoreS = rows[2];
    n.validateS = rows[3];
    n.imageKib = rows[4];
    return true;
}

/** The warming and pure-run rows of `n` (set-up rows untouched). */
void
measureWarming(WorkloadNumbers &n, std::uint64_t insts, unsigned repeats)
{
    const std::string &workload = n.workload;
    n.warmInsts = insts;

    WorkloadParams wl;
    wl.iterations = calibrateIters(workload, insts);
    const Program prog = buildWorkload(workload, wl);
    const CoreParams params = coreParams();

    for (bool bb : {false, true}) {
        double &warmIps = bb ? n.warmBbIps : n.warmStepIps;
        double &runIps = bb ? n.runBbIps : n.runStepIps;
        for (unsigned rep = 0; rep < repeats; ++rep) {
            {
                // Functional warming: trains a fresh OooCore's caches
                // and predictors, exactly the sweep warm-up path.
                FunctionalCore warm(prog, bb);
                OooCore core(prog, params);
                const auto t0 = Clock::now();
                FastForwardStats ff = fastForward(warm, core, insts);
                const double dt = seconds(t0);
                if (dt > 0) {
                    warmIps = std::max(
                        warmIps,
                        static_cast<double>(ff.instsSkipped) / dt);
                }
                if (bb && warm.blockCache()) {
                    const BbCache &c = *warm.blockCache();
                    n.bbBlocks = c.blocksDiscovered();
                    n.bbOpsCached = c.opsCached();
                    n.bbTraceHits = c.traceHits();
                    n.bbSuccHits = c.succHits();
                }
            }
            {
                // Pure functional execution, no training: the upper
                // bound the warming path is converging towards.
                FunctionalCore fc(prog, bb);
                const auto t0 = Clock::now();
                const std::uint64_t ran = fc.run(insts);
                const double dt = seconds(t0);
                if (dt > 0) {
                    runIps = std::max(
                        runIps, static_cast<double>(ran) / dt);
                }
            }
        }
    }
}

void
writeJson(const std::string &path, std::uint64_t insts, unsigned repeats,
          const std::vector<WorkloadNumbers> &rows)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "ERROR: could not write %s\n", path.c_str());
        return;
    }
    os << "{\n  \"bench\": \"micro_warm\",\n"
       << "  \"warm_insts\": " << insts << ",\n"
       << "  \"repeats\": " << repeats << ",\n"
       << "  \"workloads\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const WorkloadNumbers &n = rows[i];
        os << "    {\"workload\": \"" << n.workload << "\""
           << ", \"warm_step_insts_per_sec\": ";
        json::writeNumber(os, n.warmStepIps);
        os << ", \"warm_bbcache_insts_per_sec\": ";
        json::writeNumber(os, n.warmBbIps);
        os << ", \"warm_speedup\": ";
        json::writeNumber(os, n.warmSpeedup());
        os << ", \"run_step_insts_per_sec\": ";
        json::writeNumber(os, n.runStepIps);
        os << ", \"run_bbcache_insts_per_sec\": ";
        json::writeNumber(os, n.runBbIps);
        os << ", \"run_speedup\": ";
        json::writeNumber(os, n.runSpeedup());
        os << ", \"bb_blocks\": " << n.bbBlocks
           << ", \"bb_ops_cached\": " << n.bbOpsCached
           << ", \"bb_trace_hits\": " << n.bbTraceHits
           << ", \"bb_succ_hits\": " << n.bbSuccHits
           << ", \"setup_load_s\": ";
        json::writeNumber(os, n.loadS);
        os << ", \"setup_save_ckpt_s\": ";
        json::writeNumber(os, n.saveS);
        os << ", \"setup_restore_ckpt_s\": ";
        json::writeNumber(os, n.restoreS);
        os << ", \"setup_validate_s\": ";
        json::writeNumber(os, n.validateS);
        os << ", \"image_kib\": ";
        json::writeNumber(os, n.imageKib);
        os << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    std::fprintf(stderr, "wrote %zu workloads to %s\n", rows.size(),
                 path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseArgs(argc, argv, workloadNames(),
                               {"warm_insts", "repeats", "json_out"});
    const auto [insts, repeats] = readArgsOrExit([&] {
        return std::pair{
            static_cast<std::uint64_t>(args.raw.getCount(
                "warm_insts", args.quick ? 400'000 : 2'000'000)),
            static_cast<unsigned>(
                args.raw.getCount("repeats", args.quick ? 2 : 3, 1))};
    });
    const std::string jsonOut = args.raw.getString("json_out", "");

    std::printf("warming-throughput micro-bench: %llu insts/run, "
                "best of %u\n\n",
                static_cast<unsigned long long>(insts), repeats);
    std::printf("%-10s %12s %12s %8s %12s %12s %8s\n", "workload",
                "warm step/s", "warm bb/s", "speedup", "run step/s",
                "run bb/s", "speedup");
    hr('-', 80);

    std::vector<WorkloadNumbers> rows(args.workloads.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        rows[i].workload = args.workloads[i];
    for (WorkloadNumbers &n : rows) {
        if (!measureSetupInChild(n, repeats))
            return 1;
    }
    for (WorkloadNumbers &n : rows) {
        measureWarming(n, insts, repeats);
        std::printf("%-10s %12.3e %12.3e %7.2fx %12.3e %12.3e %7.2fx\n",
                    n.workload.c_str(), n.warmStepIps, n.warmBbIps,
                    n.warmSpeedup(), n.runStepIps, n.runBbIps,
                    n.runSpeedup());
    }

    double worst = 0.0, best = 0.0;
    unsigned atLeast5x = 0;
    for (const WorkloadNumbers &n : rows) {
        const double s = n.warmSpeedup();
        worst = worst == 0.0 ? s : std::min(worst, s);
        best = std::max(best, s);
        if (s >= 5.0)
            ++atLeast5x;
    }
    hr('-', 80);
    std::printf("warming speedup: worst %.2fx, best %.2fx, "
                ">=5x on %u/%zu workloads\n",
                worst, best, atLeast5x, rows.size());

    std::printf("\nper-job set-up path (ms, best of %u; ff to 12k insts "
                "before HALT)\n\n",
                repeats);
    std::printf("%-10s %9s %9s %9s %9s %10s\n", "workload", "load",
                "save", "restore", "validate", "image KiB");
    hr('-', 62);
    for (const WorkloadNumbers &n : rows) {
        std::printf("%-10s %9.3f %9.3f %9.3f %9.3f %10.1f\n",
                    n.workload.c_str(), 1e3 * n.loadS, 1e3 * n.saveS,
                    1e3 * n.restoreS, 1e3 * n.validateS, n.imageKib);
    }

    if (!jsonOut.empty())
        writeJson(jsonOut, insts, repeats, rows);
    return 0;
}
