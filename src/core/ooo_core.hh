/**
 * @file
 * The out-of-order superscalar core model (paper section 5): 8-wide
 * fetch/dispatch/issue/commit, 15-cycle front end, register renaming,
 * ROB, LSQ, the Table 1 function units and memory hierarchy, and a
 * pluggable instruction queue (ideal / segmented / prescheduled / FIFO).
 *
 * Execution is oracle-at-fetch: instructions execute architecturally on
 * a speculative register file as they are fetched, including down
 * mispredicted paths (wrong-path cache pollution and squash behaviour
 * are real).  The timing model schedules those pre-computed operations.
 */

#ifndef SCIQ_CORE_OOO_CORE_HH
#define SCIQ_CORE_OOO_CORE_HH

#include <array>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "branch/branch_predictor.hh"
#include "branch/btb.hh"
#include "branch/hit_miss_predictor.hh"
#include "branch/left_right_predictor.hh"
#include "branch/ras.hh"
#include "common/circular_queue.hh"
#include "common/stats.hh"
#include "core/commit_observer.hh"
#include "core/dyn_inst.hh"
#include "core/dyn_inst_pool.hh"
#include "core/fu_pool.hh"
#include "core/lsq.hh"
#include "core/rename.hh"
#include "iq/iq_base.hh"
#include "isa/exec.hh"
#include "isa/functional_core.hh"
#include "isa/program.hh"
#include "isa/sparse_memory.hh"
#include "mem/hierarchy.hh"

namespace sciq {

/** Which instruction-queue design drives the core. */
enum class IqKind
{
    Ideal,
    Segmented,
    Prescheduled,
    Fifo
};

const char *iqKindName(IqKind kind);

struct CoreParams
{
    IqKind iqKind = IqKind::Segmented;
    IqParams iq{};

    unsigned fetchWidth = 8;
    unsigned maxBranchesPerFetch = 3;
    unsigned dispatchWidth = 8;
    unsigned commitWidth = 8;
    unsigned fetchToDecode = 10;
    unsigned decodeToDispatch = 5;

    unsigned robSize = 0;     ///< 0 = 3 x IQ entries (paper section 5)
    unsigned lsqSize = 0;     ///< 0 = ROB size
    unsigned numPhysRegs = 0; ///< 0 = arch + ROB + slack

    FuPoolParams fu{};
    BranchPredictorParams bp{};
    HierarchyParams mem{};
    unsigned btbEntries = 4096;
    unsigned btbAssoc = 4;
    unsigned rasEntries = 32;
    unsigned hmpEntries = 4096;
    unsigned lrpEntries = 4096;

    bool modelWrongPath = true;

    /**
     * Deadlock watchdog: abort run() with a DeadlockError (carrying a
     * pipeline state dump) if no instruction commits for this many
     * consecutive cycles.  0 disables.  The default window is far above
     * any legitimate stall (a full-ROB chain of L2 misses resolves in
     * thousands of cycles, not a million) so real runs never trip it.
     */
    Cycle watchdogCycles = 1'000'000;

    /**
     * Test-only fault: starting at this cycle the commit stage retires
     * nothing, forever.  0 disables.  Proves the watchdog detection
     * path fires (DESIGN.md §13).
     */
    Cycle faultCommitStallAt = 0;

    /** Resolve the 0-defaults into concrete values. */
    void finalize();

    /**
     * ConfigError naming the keys when the chosen IQ cannot be built
     * with this geometry; the IQ's constructor makes the same check.
     */
    void checkIqGeometry() const;
};

class OooCore : private EventTarget
{
  public:
    /**
     * @param program borrowed: must outlive the core (no temporaries).
     * @param load_image copy the program image into the committed
     * memory.  False when the caller seeds the core (seedState) before
     * the first tick, which replaces the image anyway.
     */
    OooCore(const Program &program, const CoreParams &params,
            bool load_image = true);
    OooCore(const Program &&, const CoreParams &, bool = true) = delete;
    ~OooCore();

    /** Advance one cycle. */
    void tick();

    /**
     * Run until the program HALTs, `max_insts` commit, or `max_cycles`
     * elapse.  @return committed instructions during this call.
     */
    std::uint64_t run(std::uint64_t max_insts = ~0ULL,
                      Cycle max_cycles = ~0ULL);

    bool halted() const { return haltCommitted; }
    Cycle cycles() const { return curCycle; }
    std::uint64_t committedCount() const
    {
        return static_cast<std::uint64_t>(committedInsts.value());
    }
    double ipc() const
    {
        return curCycle ? committedInsts.value() / static_cast<double>(
                              curCycle) : 0.0;
    }

    /** Committed (architectural) register state, for validation. */
    const std::array<std::uint64_t, kNumArchRegs> &commitRegs() const
    {
        return committedRegs;
    }

    /** Committed memory image, for validation. */
    const SparseMemory &commitMemory() const { return commitMem; }

    /** Diagnostic snapshot of pipeline state (stall debugging). */
    void debugDump(std::ostream &os) const;

    /**
     * debugDump plus LSQ occupancy and the IQ design's internal state -
     * the artifact a DeadlockError carries (DESIGN.md §13).
     */
    void dumpPipelineState(std::ostream &os) const;

    /**
     * Seed architectural state before the first cycle - used by the
     * fast-forward facility to start timing simulation mid-program,
     * as the paper does from 20-billion-instruction checkpoints.  The
     * image replaces the committed memory; pass it by move when the
     * caller has no further use for it (a cold warm-up).
     */
    void seedState(const std::array<std::uint64_t, kNumArchRegs> &regs,
                   SparseMemory memory_image, Addr start_pc);

    /** Attach a pipeline-event observer (tracing); may be null. */
    void setObserver(CommitObserver *obs) { observer = obs; }

    /**
     * Hook invoked at the end of every tick(), after all stages have
     * run.  Used by the invariant auditor; may be empty.  Kept as a
     * std::function so the sim layer can observe the core without the
     * core library depending on it.
     */
    using CycleHook = std::function<void(OooCore &, Cycle)>;
    void setCycleHook(CycleHook hook) { cycleHook = std::move(hook); }

    IqBase &iqUnit() { return *iq; }
    Lsq &lsqUnit() { return *lsq; }
    MemHierarchy &memHierarchy() { return mem; }
    HybridBranchPredictor &branchPredictor() { return bp; }
    Btb &btb() { return btbUnit; }
    ReturnAddressStack &returnAddressStack() { return ras; }
    HitMissPredictor &hitMissPredictor() { return hmp; }
    LeftRightPredictor &leftRightPredictor() { return lrp; }
    const CoreParams &coreParams() const { return params; }
    const Program &prog() const { return program; }

    stats::Group &statGroup() { return statsGroup; }

    // Top-level statistics.
    stats::Scalar cyclesStat;
    stats::Scalar committedInsts;
    stats::Scalar fetchedInsts;
    stats::Scalar wrongPathInsts;
    stats::Scalar squashes;
    stats::Scalar mispredictsResolved;
    stats::Scalar committedLoads;
    stats::Scalar committedStores;
    stats::Scalar committedBranches;
    stats::Scalar committedCondBranches;
    stats::Average robOccupancy;
    stats::Distribution robOccupancyDist;

  private:
    friend class Auditor;
    /**
     * ExecContext over the speculative fetch state.  Final, so the
     * fetch stage's executeImpl instantiation calls it directly and
     * inlines the register accesses.
     */
    class FetchContext final : public ExecContext
    {
      public:
        explicit FetchContext(OooCore &core_) : core(core_) {}

        std::uint64_t readReg(RegIndex r) override
        {
            return core.specRegs[r];
        }

        void
        writeReg(RegIndex r, std::uint64_t v) override
        {
            core.specRegs[r] = v;
            lastValue = v;
            wroteReg = true;
        }

        std::uint64_t readMem(Addr addr, unsigned size) override;

        void writeMem(Addr, unsigned, std::uint64_t) override
        {
            // Stores become visible through the speculative store
            // queue; memory proper is written at commit.
        }

        std::uint64_t lastValue = 0;
        bool wroteReg = false;

      private:
        OooCore &core;
    };

    friend class FetchContext;

    void fetchStage();
    void dispatchStage();
    void issueStage();
    void writebackStage();
    void commitStage();
    void doSquash();

    bool coreBusy() const;

    /** Predict the successor PC for a control instruction at fetch. */
    void predictControl(const DynInstPtr &inst);

    /** I-cache line availability tracking for the fetch stage. */
    bool lineReady(Addr pc);
    void touchLine(Addr pc);
    /** I-cache reply: the line named by `line` has arrived. */
    void handleEvent(Cycle when, unsigned kind, std::uint64_t line) override;

    void markLoadComplete(const DynInstPtr &inst, Cycle cycle);
    void markStoreReady(const DynInstPtr &inst, Cycle cycle);

    const Program &program;
    CoreParams params;
    stats::Group statsGroup;

    // Declared before every container that can hold a DynInstPtr so
    // the pool outlives all references into it.
    DynInstPool instPool;

    MemHierarchy mem;
    SparseMemory commitMem;
    std::array<std::uint64_t, kNumArchRegs> committedRegs{};

    RenameMap rename;
    Scoreboard scoreboard;
    std::vector<Cycle> physReadyCycle;

    FuPool fu;
    HybridBranchPredictor bp;
    Btb btbUnit;
    ReturnAddressStack ras;
    HitMissPredictor hmp;
    LeftRightPredictor lrp;

    std::unique_ptr<IqBase> iq;
    std::unique_ptr<Lsq> lsq;
    CircularQueue<DynInstPtr> rob;

    // Speculative fetch state.
    std::array<std::uint64_t, kNumArchRegs> specRegs{};
    Addr fetchPc;
    bool fetchHalted = false;   ///< HALT seen on the (spec) fetch path
    bool fetchInvalid = false;  ///< fetch ran off the program image
    bool wrongPathMode = false;
    Cycle fetchResumeCycle = 0;
    CircularQueue<DynInstPtr> storeQueueSpec;

    // Line-granular presence counters over storeQueueSpec (64-byte
    // lines, hashed into 256 buckets).  A fetch-path load whose lines
    // all count zero provably overlaps no in-flight store and reads
    // committed memory directly; collisions only cost a spurious
    // queue walk, never a wrong value.
    static constexpr unsigned kSpecLineShift = 6;
    static constexpr unsigned kSpecLineBuckets = 256;
    std::array<std::uint16_t, kSpecLineBuckets> specStoreLines{};
    void trackSpecStore(const DynInst &st, int delta);

    /** Fetched, not yet dispatched; fetch stops while it is full. */
    CircularQueue<DynInstPtr> frontEndQueue;
    Cycle frontEndDepth = 0;  ///< fetch-to-dispatch cycles, IQ extra included

    // I-cache line tracking.
    std::unordered_map<Addr, Cycle> lineReadyAt;  ///< kCycleNever = pending

    // Direct-mapped memo of lines already observed ready.  A ready
    // line can never become pending again (lineReadyAt values only
    // ever transition toward ready and curCycle is monotone), so a
    // memo hit is final and skips the map lookup on the fetch path.
    static constexpr std::size_t kReadyMemoSize = 64;
    std::array<Addr, kReadyMemoSize> readyLineMemo;
    Addr icLineMask = 0;        ///< ~(lineBytes - 1)
    unsigned icLineShift = 0;   ///< log2(lineBytes)

    // Completion schedule: a cycle-bucketed ring indexed by
    // (cycle & wbMask).  Capacity is a power of two strictly greater
    // than the largest FU latency, so a bucket is always drained
    // before any in-flight op can wrap around onto it.
    std::vector<std::vector<DynInstPtr>> wbRing;
    std::size_t wbMask = 0;
    std::vector<DynInstPtr> wbScratch;  ///< drain buffer (reused)
    unsigned inFlightExec = 0;

    Cycle curCycle = 0;
    Cycle lastCommitCycle = 0;  ///< watchdog: last cycle that retired
    SeqNum nextSeq = 1;
    bool haltCommitted = false;
    unsigned issuedThisCycleCount = 0;
    CycleHook cycleHook;

    // Pending squash (oldest resolving mispredict this cycle).
    DynInstPtr pendingSquashBranch;

    CommitObserver *observer = nullptr;
};

} // namespace sciq

#endif // SCIQ_CORE_OOO_CORE_HH
