#include "sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <new>
#include <numeric>
#include <thread>
#include <unordered_set>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "sim/checkpoint.hh"
#include "sim/job_exec.hh"

namespace sciq {

std::shared_ptr<const SweepShared::SharedProgram>
SweepShared::program(const SimConfig &config)
{
    bool built = false;
    auto shared = programs_.get(
        workloadFingerprint(config.workload, config.wl),
        [&] {
            SharedProgram p{buildWorkload(config.workload, config.wl)};
            p.checksum = p.program.checksum();
            return p;
        },
        &built);
    if (built)
        ++programsBuilt_;
    return shared;
}

std::shared_ptr<const GoldenState>
SweepShared::golden(std::uint64_t program_checksum, const Program &program,
                    std::uint64_t insts)
{
    bool ran = false;
    auto golden = goldens_.get(
        GoldenKey{program_checksum, insts},
        [&] { return GoldenState::run(program, insts); }, &ran);
    if (ran)
        ++goldenRuns_;
    return golden;
}

SweepShared::Counts
SweepShared::counts() const
{
    return {programsBuilt_.load(), goldenRuns_.load(), warmUps_.load()};
}

std::size_t
SweepShared::GoldenKeyHash::operator()(const GoldenKey &k) const
{
    serial::Fnv64 h;
    h.update(k.program);
    h.update(k.insts);
    return static_cast<std::size_t>(h.digest());
}

SweepRunner::SweepRunner(unsigned jobs) : jobs_(jobs)
{
    if (jobs_ == 0) {
        jobs_ = std::thread::hardware_concurrency();
        if (jobs_ == 0)
            jobs_ = 1;
    }
}

std::vector<RunResult>
SweepRunner::run(const std::vector<SimConfig> &configs,
                 const Progress &progress) const
{
    Options options;
    options.progress = progress;
    return run(configs, options);
}

std::vector<RunResult>
SweepRunner::run(const std::vector<SimConfig> &configs,
                 const Options &options_in) const
{
    Options options = options_in;
    if (options.artifactDir.empty()) {
        if (const char *env = std::getenv("SCIQ_ARTIFACT_DIR"))
            options.artifactDir = env;
    }

    const std::size_t total = configs.size();
    std::vector<RunResult> results(total);
    std::atomic<std::size_t> done{0};
    std::mutex progressMutex;
    SweepShared shared;

    auto runOne = [&](std::size_t i) {
        results[i] = job_exec::execute(configs[i], sweepKey(configs[i]), i,
                                       options.artifactDir, &shared);
        const std::size_t n = done.fetch_add(1) + 1;
        if (options.progress) {
            std::lock_guard<std::mutex> lock(progressMutex);
            options.progress(n, total, results[i]);
        }
    };

    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(jobs_, total));

    if (workers <= 1) {
        for (std::size_t i = 0; i < total; ++i)
            runOne(i);
        if (options.reuse)
            *options.reuse = shared.counts();
        return results;
    }

    // Producers first: input order already runs the first job of each
    // warm-up key before the others, which serially is enough.  In
    // parallel it is not — a worker would block in findOrBegin while
    // another warms up — so dispatch every key's first job ahead of
    // all the jobs that restore it.
    std::vector<std::size_t> order(total);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::vector<char> restores(total, 0);
    std::unordered_set<std::uint64_t> warmKeys;
    for (std::size_t i = 0; i < total; ++i) {
        restores[i] = configs[i].fastForward > 0 &&
                      !warmKeys.insert(checkpointKeyHash(configs[i])).second;
    }
    std::stable_partition(order.begin(), order.end(),
                          [&](std::size_t i) { return !restores[i]; });

    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(workers);

    auto worker = [&](unsigned id) {
        // execute never throws, so the only exception that can reach
        // here is the caller's progress callback.  It is rethrown after
        // the other workers have drained the queue, so no completed
        // result is lost.
        try {
            for (;;) {
                const std::size_t slot =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (slot >= total)
                    return;
                runOne(order[slot]);
            }
        } catch (...) {
            errors[id] = std::current_exception();
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (unsigned id = 0; id < workers; ++id)
        threads.emplace_back(worker, id);
    for (auto &t : threads)
        t.join();

    if (options.reuse)
        *options.reuse = shared.counts();
    for (auto &err : errors) {
        if (err)
            std::rethrow_exception(err);
    }
    return results;
}

namespace {

/** Starts one `"key": ` line of a writeResultsJson row (4-space indent). */
std::ostream &
field(std::ostream &os, const char *key)
{
    return os << "    \"" << key << "\": ";
}

void
writeRow(std::ostream &os, const RunResult &r)
{
    auto str = [&](const char *key, const std::string &v) {
        field(os, key);
        json::writeString(os, v);
        os << ",\n";
    };
    auto integer = [&](const char *key, auto v) {
        field(os, key) << v << ",\n";
    };
    auto num = [&](const char *key, double v) {
        // json::writeNumber emits `null` for nan/inf (e.g. hmp_accuracy
        // on a run with no HMP-eligible loads), keeping the output
        // strictly RFC 8259 parseable.
        field(os, key);
        json::writeNumber(os, v);
        os << ",\n";
    };
    auto flag = [&](const char *key, bool v) {
        field(os, key) << (v ? "true" : "false") << ",\n";
    };

    str("workload", r.workload);
    str("iq_kind", r.iqKind);
    integer("iq_size", r.iqSize);
    integer("chains", r.chains);
    integer("cycles", r.cycles);
    integer("insts", r.insts);
    num("ipc", r.ipc);
    num("avg_chains", r.avgChains);
    num("peak_chains", r.peakChains);
    num("hmp_accuracy", r.hmpAccuracy);
    num("hmp_coverage", r.hmpCoverage);
    num("lrp_mispredict_rate", r.lrpMispredictRate);
    num("branch_mispredict_rate", r.branchMispredictRate);
    num("iq_occupancy_avg", r.iqOccupancyAvg);
    num("seg0_ready_avg", r.seg0ReadyAvg);
    num("seg0_occupancy_avg", r.seg0OccupancyAvg);
    num("deadlock_cycle_frac", r.deadlockCycleFrac);
    num("two_outstanding_frac", r.twoOutstandingFrac);
    num("heads_from_loads_frac", r.headsFromLoadsFrac);
    num("l1d_miss_rate", r.l1dMissRate);
    num("l1d_delayed_hit_frac", r.l1dDelayedHitFrac);
    num("seg_active_avg", r.segActiveAvg);
    num("seg_cycles_active", r.segCyclesActive);
    num("host_seconds", r.hostSeconds);
    num("host_kcycles_per_sec", r.hostKcyclesPerSec);
    num("host_kinsts_per_sec", r.hostKinstsPerSec);
    num("warm_seconds", r.warmSeconds);
    num("warm_insts_per_sec", r.warmInstsPerSec);
    integer("bbcache_blocks", r.bbBlocks);
    integer("bbcache_ops_cached", r.bbOpsCached);
    integer("bbcache_trace_hits", r.bbTraceHits);
    integer("bbcache_succ_hits", r.bbSuccHits);
    integer("iq_work_signal_deliveries", r.iqSignalDeliveries);
    integer("iq_work_plan_calls", r.iqPlanCalls);
    integer("iq_work_segments_scanned", r.iqSegmentsScanned);
    integer("iq_work_lane_words_touched", r.iqLaneWordsTouched);
    integer("audit_violations", r.auditViolations);
    flag("ckpt_restored", r.ckptRestored);
    flag("validated", r.validated);
    flag("halted_cleanly", r.haltedCleanly);
    // JobOutcome (DESIGN.md §13): status and code as their stable tokens.
    str("outcome", jobStatusName(r.outcome.status));
    str("error_code", errorCodeName(r.outcome.code));
    field(os, "error_msg");
    json::writeString(os, r.outcome.message);
    os << "\n";
}

} // namespace

void
writeResultsJson(std::ostream &os, const std::vector<RunResult> &results)
{
    os << "[\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        os << "  {\n";
        writeRow(os, results[i]);
        os << "  }" << (i + 1 == results.size() ? "\n" : ",\n");
    }
    os << "]\n";
}

bool
writeResultsJson(const std::string &path,
                 const std::vector<RunResult> &results)
{
    std::ofstream out(path);
    if (!out)
        return false;
    writeResultsJson(out, results);
    return static_cast<bool>(out);
}

} // namespace sciq
