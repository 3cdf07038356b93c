/**
 * @file
 * Event-driven set-associative cache model with MSHRs.
 *
 * Models what the paper's evaluation depends on: non-blocking caches
 * with up to N outstanding misses, *delayed hits* (accesses that merge
 * into an in-flight MSHR), LRU replacement, write-back/write-allocate
 * policy, and finite bandwidth to the next level.
 */

#ifndef SCIQ_MEM_CACHE_HH
#define SCIQ_MEM_CACHE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace sciq {

/**
 * How an access was satisfied (for predictors and statistics).  Its
 * value is also the event kind of the reply that completes the access.
 */
enum class AccessOutcome : std::uint8_t
{
    Hit,        ///< line present in this cache
    DelayedHit, ///< merged into an in-flight miss (MSHR hit)
    Miss        ///< primary miss, fetched from below
};

/** Event kinds a MemReply sink receives besides an AccessOutcome. */
enum MemReplyKind : unsigned
{
    kMissNotify = 3,   ///< Cache::access lookup missed (chain suspension)
    kLineArrived = 4,  ///< MemLevel::request: the line is back
    kNumReplyKinds     ///< a sink's own event kinds start here
};

/**
 * Where a memory reply goes: `sink->handleEvent(when, kind, tag)`.  The
 * tag names the request to its sink (an in-flight load's slot, an MSHR,
 * an i-cache line); a null sink discards the reply.
 */
struct MemReply
{
    EventTarget *sink = nullptr;
    std::uint64_t tag = 0;

    void
    deliver(Cycle when, unsigned kind) const
    {
        if (sink)
            sink->handleEvent(when, kind, tag);
    }
};

/** Abstract "thing that can supply cache lines" (next level or memory). */
class MemLevel
{
  public:
    virtual ~MemLevel() = default;

    /**
     * Request one line.  `reply` receives kLineArrived when the line
     * data has arrived back at the requester; that reply is an event
     * of its own even when its sink is null.
     */
    virtual void request(Addr line_addr, bool is_write, Cycle now,
                         MemReply reply) = 0;
};

struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 64 * 1024;
    unsigned assoc = 2;
    unsigned lineBytes = 64;
    unsigned latency = 3;        ///< lookup == hit latency, cycles
    unsigned mshrs = 32;         ///< max outstanding line misses
    unsigned fillBandwidth = 1;  ///< cycles between fills we can source
};

/**
 * One cache level.  Acts as a MemLevel for the level above it, so
 * L1 -> L2 -> memory compose naturally.  Every request in flight is a
 * plain record (a pooled lookup, an MSHR waiter, a parked miss) naming
 * a MemReply, so the timing path allocates nothing once its pools have
 * grown to the peak population.
 */
class Cache : public MemLevel, public EventTarget
{
  public:
    Cache(const CacheParams &params, MemLevel &below, EventQueue &events);

    /**
     * CPU-side access.  The lookup completes `latency` cycles from
     * `now`; a hit replies then with kind AccessOutcome::Hit.  A miss
     * replies kMissNotify at lookup time if `notify_miss` is set, and
     * its outcome when the fill arrives.
     */
    void access(Addr addr, bool is_write, Cycle now, MemReply reply,
                bool notify_miss = false);

    /** MemLevel interface: the level above requests a line from us. */
    void request(Addr line_addr, bool is_write, Cycle now,
                 MemReply reply) override;

    /** True if the line is currently resident (for tests). */
    bool isResident(Addr addr) const;

    /**
     * Install a line directly, bypassing timing (warm-up).  Models
     * measuring from a checkpoint with warm caches, as the paper's
     * 20-billion-instruction fast-forward does.
     */
    void warmInsert(Addr addr);

    /**
     * Fused isResident() + warmInsert(): returns the pre-insert
     * residency and installs the line if it was absent, with a single
     * set scan.  State-identical to the two separate calls; this is
     * the functional-warming hot path.
     */
    bool warmAccess(Addr addr);

    /** Invalidate everything (used between warmup configurations). */
    void flush();

    /** A line of the tag array. */
    struct Line
    {
        Addr tag = ~0ULL;
        bool valid = false;
        bool dirty = false;
        Cycle lastUse = 0;

        bool operator==(const Line &) const = default;
    };

    /**
     * The warm state of a quiescent cache: the tag array (tags,
     * valid/dirty bits, LRU state), the fill-bandwidth clock and the
     * six statistics counters, in declaration order.
     */
    struct State
    {
        std::vector<Line> lines;
        Cycle nextFillFree = 0;
        std::array<double, 6> counters{};

        bool operator==(const State &) const = default;
    };

    /**
     * Copy the warm state.  Only while the cache is quiescent (no
     * MSHRs in flight and no miss waiting for one): a warm state is
     * taken after functional warming, before any timed access.
     */
    State capture() const;

    /**
     * Replace the warm state with `s`, taken from a cache of the same
     * geometry; this cache must be quiescent too.
     */
    void adopt(const State &s);

    /** Misses currently waiting for a free MSHR. */
    std::size_t parkedMisses() const { return parkedCount; }

    /**
     * Audit mode: re-check every member of a retry batch that fails in
     * bulk (its line absent from the MSHR file, the file full) and
     * count disagreements (DESIGN.md section 11).
     */
    void setAuditWaiters(bool on) { auditWaiters = on; }
    std::uint64_t mshrWaitChecks() const { return waitChecks; }
    std::uint64_t mshrWaitMismatches() const { return waitMismatches; }

    unsigned lineBytes() const { return params_.lineBytes; }
    const CacheParams &params() const { return params_; }

    stats::Group &statGroup() { return statsGroup; }

    // Statistics (public so the harness can read them directly).
    stats::Scalar accesses;
    stats::Scalar hits;
    stats::Scalar misses;        ///< primary misses
    stats::Scalar delayedHits;   ///< merged into an in-flight MSHR
    stats::Scalar writebacks;
    stats::Scalar mshrFullStalls;

  private:
    /** No MSHR in flight and no miss waiting for one. */
    bool
    quiescent() const
    {
        return freeMshrs.size() == mshrFile.size() && parkedCount == 0;
    }

    /** The cache's own event kinds. */
    enum : unsigned
    {
        kLookupDone = kNumReplyKinds,  ///< arg: lookup record index
        kRetry,                        ///< arg: retry batch slot
    };

    /**
     * A request waiting on a line: `kind` is what the fill delivers,
     * an AccessOutcome for a CPU access, or kLineArrived for a line
     * requested from above, which is sourced up through the fill
     * bandwidth.
     */
    struct Waiter
    {
        MemReply reply;
        unsigned kind;
    };

    /** An access or line request between its start and its lookup. */
    struct Lookup
    {
        Addr lineAddr;
        MemReply reply;
        bool isWrite;
        bool isAccess;    ///< CPU-side access, not a line request
        bool notifyMiss;
    };

    /** One MSHR; its waiter vector keeps its capacity across uses. */
    struct Mshr
    {
        Addr lineAddr = 0;
        bool anyWrite = false;
        std::vector<Waiter> waiters;
    };

    /** A miss that found every MSHR busy and retries next cycle. */
    struct ParkedMiss
    {
        Addr lineAddr;
        bool isWrite;
        Waiter waiter;
    };

    /**
     * Misses that retry in one cycle, in the order separate per-miss
     * retry events would fire: members are only appended while the
     * batch's event is the newest one scheduled for its cycle.
     * `openEpoch` is the MSHR-file epoch when the batch was opened.
     * Epochs only grow and every member failed between then
     * and the batch's cycle, so if the epoch is unchanged when the
     * batch runs, every member failed against the file as it is now.
     */
    struct RetryBatch
    {
        std::vector<ParkedMiss> misses;
        std::uint64_t openEpoch = 0;
    };

    static constexpr std::uint32_t kNoBatch = ~0U;

    Addr lineAddrOf(Addr addr) const
    {
        return addr & ~static_cast<Addr>(params_.lineBytes - 1);
    }

    std::size_t
    setIndex(Addr line_addr) const
    {
        // lineBytes and numSets are asserted powers of two, so the
        // index is a shift+mask (a runtime division here dominated the
        // functional-warming profile).
        return (line_addr >> lineShift) & (numSets - 1);
    }

    Line *lookup(Addr line_addr);

    /**
     * Warm-path residency probe + install in a single set scan;
     * state-identical to `if (!lookup(la)) installLine(la, false, 0)`
     * plus setting the warm memo.  Returns pre-insert residency.
     */
    bool warmTouch(Addr line_addr);

    void handleEvent(Cycle when, unsigned kind, std::uint64_t arg) override;

    /** Schedule the lookup of an access or line request. */
    void startLookup(const Lookup &lk, Cycle now);

    /** Event body: the lookup of record `idx` completes. */
    void finishLookup(std::uint32_t idx, Cycle when);

    /** Send a line up to `reply`, subject to the fill bandwidth. */
    void sourceUp(MemReply reply, Cycle ready);

    /** Allocate/merge an MSHR; may defer if all MSHRs are busy. */
    void startMiss(Addr line_addr, bool is_write, Cycle now, Waiter w);

    static constexpr std::uint32_t kNoMshr = ~0U;

    /** Slot of the live MSHR for `line_addr`, or kNoMshr. */
    std::uint32_t findMshr(Addr line_addr) const;

    /** Drop MSHR `slot` from the index and return it to the free stack. */
    void releaseMshr(std::uint32_t slot);

    /** mshrIndex position a line's probe sequence starts at. */
    std::size_t
    mshrHome(Addr line_addr) const
    {
        return static_cast<std::size_t>(
            ((line_addr >> lineShift) * 0x9E3779B97F4A7C15ULL) >>
            mshrIndexShift);
    }

    /**
     * The batch that misses failing now join to retry at `when`: the
     * open one while its event is still the newest for `when`, else a
     * newly scheduled one.
     */
    RetryBatch &batchFor(Cycle when);

    /** Event body: retry one batch of parked misses. */
    void retryBatch(std::uint32_t slot);

    /** Install the filled line and wake MSHR `slot`'s waiters. */
    void handleFill(std::uint32_t slot, Cycle when);

    /** Victim selection + dirty-eviction writeback. */
    void installLine(Addr line_addr, bool dirty, Cycle now);

    CacheParams params_;
    MemLevel &below;
    EventQueue &events;
    stats::Group statsGroup;

    std::size_t numSets;
    unsigned lineShift = 0;   ///< log2(lineBytes)
    std::vector<Line> lines;  // numSets * assoc, set-major

    /**
     * Warm-path memo: these lines are known resident, so a repeated
     * warmAccess/warmInsert is a few compares instead of a set scan.
     * Sound because installs are the only line mutation during
     * functional warming: any installLine (the install may evict a
     * memoized line), flush() or adopt() invalidates the whole memo.
     * Pure acceleration state — never in a warm state, never consulted by
     * the timed path.  Which lines happen to be memoized affects speed
     * only, never state: a memo hit returns exactly what the set scan
     * would.
     */
    static constexpr std::size_t kWarmMemoSlots = 4;
    static constexpr Addr kNoWarmLine = ~0ULL;
    std::array<Addr, kWarmMemoSlots> warmLines;
    std::size_t warmMemoNext = 0;

    bool
    warmMemoHas(Addr la) const
    {
        for (Addr w : warmLines)
            if (w == la)
                return true;
        return false;
    }

    void
    warmMemoAdd(Addr la)
    {
        warmLines[warmMemoNext] = la;
        warmMemoNext = (warmMemoNext + 1) % kWarmMemoSlots;
    }

    void warmMemoClear() { warmLines.fill(kNoWarmLine); }

    /** Pooled lookup records, addressed by kLookupDone's argument. */
    std::vector<Lookup> lookups;
    std::vector<std::uint32_t> freeLookups;

    /**
     * The MSHR file: `params_.mshrs` slots, a free-slot stack, and an
     * open-addressed linear-probe index from line to slot + 1 (0 =
     * empty) at a quarter load or less.  A fill names its MSHR by slot.
     */
    std::vector<Mshr> mshrFile;
    std::vector<std::uint32_t> freeMshrs;
    std::vector<std::uint32_t> mshrIndex;
    unsigned mshrIndexShift = 0;  ///< 64 - log2(mshrIndex.size())

    /** Storage handleFill swaps waiter vectors through (reused). */
    std::vector<Waiter> fillWaiters;

    /** Bumped on every MSHR allocation and free. */
    std::uint64_t mshrEpoch = 0;

    /**
     * Retry batches by slot; a slot is live from its event's scheduling
     * until the event has run.  `openBatch` is the newest batch; a miss
     * may join it while its event (openTicket) is still the newest one
     * scheduled for the cycle the miss retries in.
     */
    std::vector<RetryBatch> batches;
    std::vector<std::uint32_t> freeBatches;
    std::uint32_t openBatch = kNoBatch;
    EventQueue::Ticket openTicket = 0;
    std::size_t parkedCount = 0;

    bool auditWaiters = false;
    std::uint64_t waitChecks = 0;
    std::uint64_t waitMismatches = 0;

    /** Next cycle at which we may source a fill upward (bandwidth). */
    Cycle nextFillFree = 0;
};

} // namespace sciq

#endif // SCIQ_MEM_CACHE_HH
