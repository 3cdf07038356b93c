/**
 * @file
 * Parallel design-space sweep driver.  The evaluation reproduces the
 * paper's figures by running 100+ independent simulator configurations;
 * SweepRunner executes a list of SimConfigs on a pool of worker
 * threads while preserving the input ordering of the results, so
 * `jobs=1` and `jobs=N` emit bit-identical tables.
 *
 * Safety model: every job owns its OooCore, DynInstPool and stats
 * outright, and the simulator keeps no global mutable state, so
 * configurations are embarrassingly parallel.  What jobs share is
 * immutable once made: the Program and the golden end state of each
 * input live in one SweepShared per run() call, handed out as
 * shared_ptr<const>, and warm-ups in the configs' CheckpointCache.
 * The remaining cross-thread traffic is the work-queue index and the
 * result slots, which are disjoint per job.
 *
 * Fault containment (DESIGN.md §13): a job that throws does not kill
 * the sweep.  Its exception is classified through the error taxonomy
 * into RunResult::outcome, once and without retry, and the failed row
 * still appears in every table and JSON file with its error code.
 * Results leave a sweep in one format, the writeResultsJson array.
 */

#ifndef SCIQ_SIM_SWEEP_HH
#define SCIQ_SIM_SWEEP_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/once_map.hh"
#include "sim/simulator.hh"

namespace sciq {

/**
 * Deterministic identity of a sweep job: `key=value` for every
 * result-changing config key whose value differs from a
 * default-constructed SimConfig, in the order of the key table in
 * sim_config.cc (where this is defined).  Host settings (jobs,
 * warm-up sharing, validation, auditing, the watchdog and deadline)
 * change how a result is produced, never what it is, and are left
 * out.  CoreParams fields that no
 * config key sets (Table 1 widths, latencies, cache geometries) are
 * not in the key either: no front end changes them yet except the
 * host-only watchdog, so a field hash would guard nothing.  Hash them
 * in with the first caller that sets one.
 */
std::string sweepKey(const SimConfig &config);

/**
 * The functional-model products one SweepRunner::run computes once per
 * input and shares read-only with every job of that input (DESIGN.md
 * §10).  It lives for one run() call.
 *
 *   - program(): the workload Program, built once per
 *     workloadFingerprint, with its checksum computed once.
 *   - golden(): the end state validation compares with, keyed by
 *     (program checksum, instruction count) and always made
 *     by GoldenState::run from the program image — never from a
 *     warm-up.
 *
 * Each product is made by the first job that asks for it while later
 * askers wait (OnceMap); a build or run that throws is not cached.
 */
class SweepShared
{
  public:
    /** A shared program and its checksum. */
    struct SharedProgram
    {
        Program program;
        std::uint64_t checksum = 0;
    };

    /** Reuse accounting: how often each product was actually made. */
    struct Counts
    {
        std::uint64_t programsBuilt = 0;
        std::uint64_t goldenRuns = 0;
        std::uint64_t warmUps = 0;  ///< cold fast-forwards by the jobs
    };

    std::shared_ptr<const SharedProgram> program(const SimConfig &config);

    /** `program`'s state after `insts` instructions from its image. */
    std::shared_ptr<const GoldenState>
    golden(std::uint64_t program_checksum, const Program &program,
           std::uint64_t insts);

    /** Count one warm-up a job ran cold instead of restoring. */
    void noteWarmUp() { ++warmUps_; }

    Counts counts() const;

  private:
    struct GoldenKey
    {
        std::uint64_t program;
        std::uint64_t insts;

        bool operator==(const GoldenKey &) const = default;
    };

    struct GoldenKeyHash
    {
        std::size_t operator()(const GoldenKey &k) const;
    };

    OnceMap<std::uint64_t, SharedProgram> programs_;
    OnceMap<GoldenKey, GoldenState, GoldenKeyHash> goldens_;
    std::atomic<std::uint64_t> programsBuilt_{0};
    std::atomic<std::uint64_t> goldenRuns_{0};
    std::atomic<std::uint64_t> warmUps_{0};
};

class SweepRunner
{
  public:
    /** Called after each finished run (always on the calling thread
     *  for jobs<=1, under a lock otherwise): done count, total, and
     *  the just-finished result. */
    using Progress =
        std::function<void(std::size_t, std::size_t, const RunResult &)>;

    /** Per-sweep failure artifacts, progress and reuse reporting. */
    struct Options
    {
        /**
         * Directory for failure artifacts (watchdog pipeline dumps,
         * auditor state); "" = $SCIQ_ARTIFACT_DIR, or no artifacts
         * when that is unset too.  Created on first use.
         */
        std::string artifactDir;

        Progress progress;

        /** When set, receives the sweep's reuse counts as run() returns. */
        SweepShared::Counts *reuse = nullptr;
    };

    /** @param jobs worker threads; 0 = std::thread::hardware_concurrency. */
    explicit SweepRunner(unsigned jobs = 0);

    /**
     * Run every configuration and return results in input order.  Job
     * failures are contained into RunResult::outcome; only an exception
     * from the caller's `progress` callback propagates, after all
     * workers have drained.  With several workers, the first job of
     * each warm-up key is dispatched before every job that would
     * restore it, so no worker waits on a warm-up that another has
     * only just begun.
     */
    std::vector<RunResult> run(const std::vector<SimConfig> &configs,
                               const Options &options) const;

    /** Convenience overload with default containment options. */
    std::vector<RunResult> run(const std::vector<SimConfig> &configs,
                               const Progress &progress = nullptr) const;

    unsigned jobs() const { return jobs_; }

  private:
    unsigned jobs_;
};

/**
 * Emit results as a machine-readable JSON array (one object per run,
 * every RunResult field including the job outcome) for trajectory
 * tracking and plotting.
 */
void writeResultsJson(std::ostream &os,
                      const std::vector<RunResult> &results);

/** writeResultsJson to a file path; returns false on I/O failure. */
bool writeResultsJson(const std::string &path,
                      const std::vector<RunResult> &results);

} // namespace sciq

#endif // SCIQ_SIM_SWEEP_HH
