/**
 * @file
 * The Simulator facade: builds the workload program and core from a
 * SimConfig, runs to completion, validates committed state against the
 * functional golden model, and extracts the metrics the evaluation
 * section reports.
 */

#ifndef SCIQ_SIM_SIMULATOR_HH
#define SCIQ_SIM_SIMULATOR_HH

#include <array>
#include <memory>
#include <optional>
#include <ostream>
#include <string>

#include "common/errors.hh"
#include "common/stats.hh"
#include "sim/sim_config.hh"

namespace sciq {

class Auditor;
class FunctionalCore;
class SweepShared;
struct FastForwardStats;

/**
 * The architectural state a functional-model run from the program
 * image reaches: what validation compares the pipeline's committed
 * state with.
 */
struct GoldenState
{
    std::array<std::uint64_t, kNumArchRegs> regs{};
    SparseMemory memory;

    /**
     * Run `program` from its image for `insts` instructions (fewer if
     * it halts).
     */
    static GoldenState run(const Program &program, std::uint64_t insts);

    /**
     * Registers 1.. and every memory byte equal `core`'s committed
     * state (the core's image also holds the loaded program text;
     * untouched pages compare as zero).
     */
    bool matches(const OooCore &core) const;
};

/**
 * How a sweep job ended (DESIGN.md §13).  A default-constructed
 * outcome means Ok so results produced outside the sweep runner
 * (direct runSim calls) stay valid.
 */
struct JobOutcome
{
    enum class Status
    {
        Ok,      ///< run completed; stats fields are meaningful
        Failed,  ///< an error was contained; see code/message
        Timeout, ///< wall-clock deadline exceeded (DeadlockError timeout)
    };

    Status status = Status::Ok;
    ErrorCode code = ErrorCode::None;
    std::string message;

    bool ok() const { return status == Status::Ok; }
};

const char *jobStatusName(JobOutcome::Status status);

/** Everything the benchmark harnesses report, in one POD. */
struct RunResult
{
    std::string workload;
    std::string iqKind;
    unsigned iqSize = 0;
    int chains = -1;

    std::uint64_t cycles = 0;
    std::uint64_t insts = 0;
    double ipc = 0.0;

    // Chain statistics (Table 2).
    double avgChains = 0.0;
    double peakChains = 0.0;

    // Predictor statistics (section 6.1 text).
    double hmpAccuracy = 0.0;
    double hmpCoverage = 0.0;
    double lrpMispredictRate = 0.0;
    double branchMispredictRate = 0.0;

    // Occupancy / deadlock statistics (section 6.1 / 4.5 text).
    double iqOccupancyAvg = 0.0;
    double seg0ReadyAvg = 0.0;
    double seg0OccupancyAvg = 0.0;
    double deadlockCycleFrac = 0.0;
    double twoOutstandingFrac = 0.0;
    double headsFromLoadsFrac = 0.0;

    // Memory behaviour.
    double l1dMissRate = 0.0;       ///< incl. delayed hits
    double l1dDelayedHitFrac = 0.0;

    // Dynamic-resize statistics (ablation A3).
    double segActiveAvg = 0.0;      ///< powered segments per cycle
    double segCyclesActive = 0.0;   ///< total powered segment-cycles

    /** Invariant-auditor violations (0 unless SimConfig::audit). */
    std::uint64_t auditViolations = 0;

    /**
     * The warm-up prefix was copied from a shared warm state instead
     * of being re-executed.  Informational only: restored and cold runs
     * produce bit-identical architected stats, but which sweep point
     * happens to produce a shared warm-up is scheduling-dependent, so
     * this flag is excluded from determinism comparisons.
     */
    bool ckptRestored = false;

    // Host performance of the timed core loop (every sweep doubles as
    // a perf sample).  Wall-clock, so never part of bit-identity
    // comparisons (see tests/test_sweep.cc).
    double hostSeconds = 0.0;
    double hostKcyclesPerSec = 0.0;
    double hostKinstsPerSec = 0.0;

    // Functional-warming performance and block-cache observability.
    // Non-zero only when this run executed the warm-up itself (a
    // restore skips it), so like hostSeconds these are
    // wall-clock/scheduling-dependent and excluded from bit-identity
    // comparisons.
    double warmSeconds = 0.0;
    double warmInstsPerSec = 0.0;
    std::uint64_t bbBlocks = 0;     ///< basic blocks discovered
    std::uint64_t bbOpsCached = 0;  ///< micro-ops across those blocks
    std::uint64_t bbTraceHits = 0;  ///< block lookups served from cache
    std::uint64_t bbSuccHits = 0;   ///< successor inline-cache hits

    // Deterministic host-work counters of the segmented IQ scheduler
    // (DESIGN.md section 16.5; zero for other IQ kinds).  Exact and
    // noise-free - unlike the wall-clock numbers above they are
    // reproducible bit for bit - but they measure *host* effort, so a
    // scheduler change that keeps every simulated result can move them.
    std::uint64_t iqSignalDeliveries = 0;  ///< chain-log entries examined
    std::uint64_t iqPlanCalls = 0;         ///< full computePlan executions
    std::uint64_t iqSegmentsScanned = 0;   ///< promotion-pass segment visits
    std::uint64_t iqLaneWordsTouched = 0;  ///< 8-byte sched words touched

    bool validated = false;
    bool haltedCleanly = false;

    /**
     * Fault containment: how the sweep job that produced this result
     * ended.  On Failed/Timeout the identity fields (workload, IQ
     * kind/size/chains) are filled from the config and every stat is
     * zero - the job appears in tables with its error, never vanishes.
     */
    JobOutcome outcome;
};

class Simulator
{
  public:
    /**
     * @param shared the inputs one sweep shares among its jobs (the
     * program, the golden end state, the warm-up count); null builds
     * the program and runs the golden model privately.  Must outlive
     * the Simulator.
     */
    explicit Simulator(const SimConfig &config,
                       SweepShared *shared = nullptr);
    ~Simulator();

    /** Run to HALT (or the cycle cap) and collect results. */
    RunResult run();

    /**
     * Split run() for callers that drive the core loop themselves
     * (the benchmark harness): prepare() performs
     * the configured fast-forward (no-op when fastForward is 0) and
     * returns instructions skipped; collect() extracts the RunResult
     * after the caller has run the core to completion.  run() is
     * exactly prepare() + the timed loop + collect().  With a
     * fast-forward configured, the core holds no memory image until
     * prepare() seeds it.
     */
    std::uint64_t prepare(bool &restored);
    RunResult collect(double host_seconds, std::uint64_t skipped,
                      bool restored);

    OooCore &core() { return *core_; }
    const Program &program() const { return *program_; }
    const SimConfig &simConfig() const { return config; }

    /** The attached invariant auditor, or null when audit is off. */
    Auditor *auditor() { return auditor_.get(); }

    /**
     * Warm-up observability: `warm.seconds`, `warm.insts_per_sec` and
     * the `warm.bbcache.*` counters.  Deliberately NOT a child of the
     * core's stat group — wall-clock values would break the restored
     * ≡ cold byte-identity of that tree (tests/test_checkpoint.cc).
     */
    stats::Group &warmStatGroup() { return warmStats_; }

  private:
    /**
     * Perform the configured fast-forward, through the shared warm-up
     * cache when one is configured.  Returns the warm-up's statistics;
     * sets `restored` when the state was copied from a cached warm-up.
     */
    FastForwardStats warmUp(bool &restored);

    /** Record warming wall-clock and block-cache counters. */
    void noteWarm(double seconds, std::uint64_t insts,
                  const FunctionalCore &warm);

    /** program_->checksum(), computed at most once. */
    std::uint64_t programChecksum();

    SimConfig config;
    SweepShared *shared_;
    /** Borrowed by core_ and this run's FunctionalCores: declared first. */
    std::shared_ptr<const Program> program_;
    /** program_->checksum(): given by the sweep, else computed once. */
    std::optional<std::uint64_t> programChecksum_;
    std::unique_ptr<OooCore> core_;
    std::unique_ptr<Auditor> auditor_;

    stats::Group warmStats_{"warm"};
    stats::Group bbStats_{"bbcache"};
    stats::Scalar warmSecondsStat_;
    stats::Scalar warmIpsStat_;
    stats::Scalar bbBlocksStat_;
    stats::Scalar bbOpsStat_;
    stats::Scalar bbTraceHitsStat_;
    stats::Scalar bbSuccHitsStat_;
};

/** Convenience: configure, run, and return the result. */
RunResult runSim(const SimConfig &config, SweepShared *shared = nullptr);

/** Fixed-width results-table helpers shared by the benches. */
void printResultHeader(std::ostream &os);
void printResultRow(std::ostream &os, const RunResult &r);

} // namespace sciq

#endif // SCIQ_SIM_SIMULATOR_HH
