/**
 * @file
 * DynInst: one dynamic (in-flight) instruction.  Carries the decoded
 * static instruction, the oracle outcome computed by execute-at-fetch,
 * rename state and timing state.  Scheduler state lives in the queues.
 */

#ifndef SCIQ_CORE_DYN_INST_HH
#define SCIQ_CORE_DYN_INST_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "branch/branch_predictor.hh"
#include "branch/ras.hh"
#include "common/types.hh"
#include "isa/instruction.hh"

namespace sciq {

/** Fetch-state checkpoint taken after a mispredicted control inst. */
struct FetchCheckpoint
{
    std::array<std::uint64_t, kNumArchRegs> regs;
    ReturnAddressStack::Snapshot ras;
};

/** Segmented-IQ state read after issue: the chain wire this inst heads. */
struct SegIqState
{
    ChainId headedChain = kNoChain;  ///< chain this inst is the head of
    std::uint32_t headedGen = 0;
    bool chainReleased = false;      ///< headed chain already freed
};

/** Scheduler state for the ideal (monolithic CAM) IQ. */
struct IdealIqState
{
    int pendingOps = 0;   ///< unready gating sources at last update
    std::uint32_t slot = 0;  ///< index in the queue's residency list
    bool inQueue = false; ///< resident (waiter entries may be stale)
};

class DynInstPool;

class DynInst
{
    friend class DynInstPtr;
    friend class DynInstPool;

    // Intrusive, non-atomic reference count.  DynInsts are confined to
    // the core that fetched them (never shared across threads), so the
    // atomic RMW traffic of std::shared_ptr would be pure overhead in
    // the fetch/rename hot path.  First in the object, beside the
    // static instruction, pc and seq that fetch writes, so a hand-off's
    // count update hits a line the pipeline has just touched.
    std::uint32_t refs_ = 0;
    DynInstPool *pool_ = nullptr;  ///< owner; null = plain heap (tests)

  public:
    // ---- Static / oracle -------------------------------------------------
    Instruction staticInst;
    Addr pc = 0;
    SeqNum seq = kInvalidSeqNum;

    // The one-byte fields of this group and the next sit together so
    // they share one padding gap.
    Addr oracleNextPc = 0;      ///< architected successor along this path
    Addr effAddr = 0;           ///< memory ops: effective address
    std::uint64_t memValue = 0; ///< load result / store data (oracle)
    std::uint64_t dstValue = 0; ///< architectural result (oracle)
    bool oracleTaken = false;
    bool isHalt = false;
    bool onWrongPath = false;   ///< fetched beyond a mispredicted branch

    // ---- Branch prediction ------------------------------------------------
    bool predictedTaken = false;
    bool mispredicted = false;  ///< prediction != oracle (resolves at exec)
    bool usedCondPredictor = false;
    Addr predictedNextPc = 0;
    HybridBranchPredictor::HistorySnapshot historySnap = 0;
    std::unique_ptr<FetchCheckpoint> checkpoint;  ///< mispredicted only

    // ---- Rename -----------------------------------------------------------
    std::array<RegIndex, 2> archSrc{kInvalidReg, kInvalidReg};
    RegIndex archDst = kInvalidReg;
    std::array<RegIndex, 2> physSrc{kInvalidReg, kInvalidReg};
    RegIndex physDst = kInvalidReg;
    RegIndex prevPhysDst = kInvalidReg;  ///< for squash undo

    // ---- Pipeline status ---------------------------------------------------
    bool dispatched = false;
    bool issued = false;
    bool completed = false;   ///< result produced; may commit
    bool squashed = false;

    Cycle fetchCycle = 0;
    Cycle dispatchReadyCycle = 0;  ///< earliest dispatch (front-end depth)
    Cycle issueCycle = 0;
    Cycle completeCycle = 0;

    std::int8_t lsqCls = -1;      ///< cached LSQ conflict class (-1 = stale)
    SeqNum lsqBlockSeq = 0;       ///< older store the cached class depends on
    bool addrReady = false;       ///< address generation finished
    bool memAccessSent = false;
    bool loadForwarded = false;   ///< satisfied by store-to-load forward
    bool loadWasL1Hit = false;    ///< actual outcome (HMP training)
    bool loadWasDelayedHit = false;

    // ---- Predictor bookkeeping (paper 4.3/4.4) ------------------------------
    bool hmpPredictedHit = false;
    bool hmpUsed = false;
    bool lrpUsed = false;
    bool lrpPredictedLeft = false;
    bool hadTwoOutstanding = false;

    // ---- IQ-design-specific scheduler state ---------------------------------
    SegIqState seg;
    IdealIqState ideal;

    // Convenience forwarding helpers.
    OpClass opClass() const { return staticInst.opClass(); }
    bool isLoad() const { return staticInst.isLoad(); }
    bool isStore() const { return staticInst.isStore(); }
    bool isControl() const { return staticInst.isControl(); }
};

// Four cache lines: every fetched instruction placement-news one.
static_assert(sizeof(DynInst) <= 256, "DynInst grew past four cache lines");

/**
 * Intrusive smart pointer to a DynInst.  Semantics match
 * std::shared_ptr for the operations the pipeline uses (copy, move,
 * compare, deref) but the count is a plain integer and storage returns
 * to the owning DynInstPool (or the heap) when it reaches zero.
 */
class DynInstPtr
{
  public:
    constexpr DynInstPtr() noexcept = default;
    constexpr DynInstPtr(std::nullptr_t) noexcept {}

    DynInstPtr(const DynInstPtr &o) noexcept : p_(o.p_)
    {
        if (p_)
            ++p_->refs_;
    }

    DynInstPtr(DynInstPtr &&o) noexcept : p_(o.p_) { o.p_ = nullptr; }

    DynInstPtr &
    operator=(const DynInstPtr &o) noexcept
    {
        DynInstPtr(o).swap(*this);
        return *this;
    }

    DynInstPtr &
    operator=(DynInstPtr &&o) noexcept
    {
        DynInstPtr(std::move(o)).swap(*this);
        return *this;
    }

    DynInstPtr &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    ~DynInstPtr() { reset(); }

    void
    reset() noexcept
    {
        if (p_ && --p_->refs_ == 0)
            release(p_);
        p_ = nullptr;
    }

    void
    swap(DynInstPtr &o) noexcept
    {
        DynInst *t = p_;
        p_ = o.p_;
        o.p_ = t;
    }

    DynInst *get() const noexcept { return p_; }
    DynInst &operator*() const noexcept { return *p_; }
    DynInst *operator->() const noexcept { return p_; }
    explicit operator bool() const noexcept { return p_ != nullptr; }

    std::uint32_t useCount() const noexcept { return p_ ? p_->refs_ : 0; }

    friend bool
    operator==(const DynInstPtr &a, const DynInstPtr &b) noexcept
    {
        return a.p_ == b.p_;
    }
    friend bool
    operator!=(const DynInstPtr &a, const DynInstPtr &b) noexcept
    {
        return a.p_ != b.p_;
    }
    friend bool
    operator==(const DynInstPtr &a, std::nullptr_t) noexcept
    {
        return a.p_ == nullptr;
    }
    friend bool
    operator!=(const DynInstPtr &a, std::nullptr_t) noexcept
    {
        return a.p_ != nullptr;
    }

  private:
    friend class DynInstPool;
    friend DynInstPtr makeDynInst();

    /** Adopt a freshly constructed instruction (refs_ must be 0). */
    explicit DynInstPtr(DynInst *p) noexcept : p_(p)
    {
        if (p_)
            ++p_->refs_;
    }

    /** Return storage to the owning pool or the heap (dyn_inst.cc). */
    static void release(DynInst *p) noexcept;

    DynInst *p_ = nullptr;
};

/** Heap-allocate a standalone DynInst (unit tests, harnesses). */
inline DynInstPtr
makeDynInst()
{
    return DynInstPtr(new DynInst);
}

} // namespace sciq

#endif // SCIQ_CORE_DYN_INST_HH
