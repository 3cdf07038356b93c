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
#include <thread>
#include <unordered_set>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "sim/checkpoint.hh"
#include "sim/job_exec.hh"
#include "sim/journal.hh"
#include "sim/run_result_fields.hh"

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
                    std::uint64_t insts, bool bb_cache)
{
    bool ran = false;
    auto golden = goldens_.get(
        GoldenKey{program_checksum, insts, bb_cache},
        [&] { return GoldenState::run(program, insts, bb_cache); }, &ran);
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
    h.update(k.bbCache ? 1 : 0);
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
    std::vector<std::string> keys(total);
    for (std::size_t i = 0; i < total; ++i)
        keys[i] = sweepKey(configs[i]);

    // Resume: reuse journaled-ok entries whose identity still matches;
    // failed/timeout/missing/mismatched jobs run again.  Later journal
    // lines supersede earlier ones with the same index.
    std::vector<char> have(total, 0);
    std::unique_ptr<ResultJournal> journal;
    if (!options.journal.empty()) {
        applyJournal(options.journal, keys, results, have);
        journal = std::make_unique<ResultJournal>(options.journal);
    }

    std::vector<std::size_t> pending;
    pending.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
        if (!have[i])
            pending.push_back(i);
    }

    std::atomic<std::size_t> done{total - pending.size()};
    std::mutex progressMutex;
    SweepShared shared;

    auto runOne = [&](std::size_t i) {
        RunResult r = job_exec::execute(configs[i], keys[i], i,
                                        options.artifactDir, &shared);
        if (journal)
            journal->record(i, keys[i], r);
        results[i] = std::move(r);
        const std::size_t n = done.fetch_add(1) + 1;
        if (options.progress) {
            std::lock_guard<std::mutex> lock(progressMutex);
            options.progress(n, total, results[i]);
        }
    };

    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(jobs_, pending.size()));

    if (workers <= 1) {
        for (std::size_t i : pending)
            runOne(i);
        if (options.reuse)
            *options.reuse = shared.counts();
        return results;
    }

    // Producers first: input order already runs the first job of each
    // checkpoint key before the others, which serially is enough.  In
    // parallel it is not — a worker would block in findOrBegin while
    // another warms up — so dispatch every key's first job ahead of
    // all the jobs that restore it.
    std::vector<char> restores(total, 0);
    std::unordered_set<std::uint64_t> warmKeys;
    for (std::size_t i : pending) {
        restores[i] = configs[i].fastForward > 0 &&
                      !warmKeys.insert(checkpointKeyHash(configs[i])).second;
    }
    std::stable_partition(pending.begin(), pending.end(),
                          [&](std::size_t i) { return !restores[i]; });

    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(workers);

    auto worker = [&](unsigned id) {
        // execute never throws; anything caught here is harness
        // trouble (e.g. journal I/O), reported after the other workers
        // have drained the queue so no completed result is lost.
        try {
            for (;;) {
                const std::size_t slot =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (slot >= pending.size())
                    return;
                runOne(pending[slot]);
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

/** Pretty writer over the shared field list (4-space indent). */
struct PrettyWriter
{
    std::ostream &os;

    void
    str(const char *key, const std::string &v)
    {
        os << "    \"" << key << "\": ";
        json::writeString(os, v);
        os << ",\n";
    }
    void uns(const char *key, unsigned v) { line(key) << v << ",\n"; }
    void i(const char *key, int v) { line(key) << v << ",\n"; }
    void u64(const char *key, std::uint64_t v) { line(key) << v << ",\n"; }
    void
    num(const char *key, double v)
    {
        // json::writeNumber emits `null` for nan/inf (e.g. hmp_accuracy
        // on a run with no HMP-eligible loads), keeping the output
        // strictly RFC 8259 parseable.
        line(key);
        json::writeNumber(os, v);
        os << ",\n";
    }
    void
    b(const char *key, bool v)
    {
        line(key) << (v ? "true" : "false") << ",\n";
    }

    std::ostream &line(const char *key)
    {
        return os << "    \"" << key << "\": ";
    }
};

} // namespace

void
writeResultsJson(std::ostream &os, const std::vector<RunResult> &results)
{
    os << "[\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunResult &r = results[i];
        os << "  {\n";
        PrettyWriter w{os};
        visitRunResultFields(w, r);
        w.line("outcome");
        json::writeString(os, jobStatusName(r.outcome.status));
        os << ",\n";
        w.line("error_code");
        json::writeString(os, errorCodeName(r.outcome.code));
        os << ",\n";
        w.line("error_msg");
        json::writeString(os, r.outcome.message);
        os << "\n";
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
