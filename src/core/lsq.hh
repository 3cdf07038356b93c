/**
 * @file
 * Load/store queue.  Memory instructions split into an address
 * generation (scheduled by the IQ as an integer op) and a memory access
 * managed here (paper section 5).  A load may access the cache once its
 * address is known and it provably does not conflict with any older
 * pending store; fully-covering older stores with ready data forward
 * directly.  Stores access the cache after commit from a drain buffer.
 *
 * Scheduling is event-driven (DESIGN.md §11): instead of scanning
 * every entry every cycle, the queue keeps age-ordered side lists of
 * the instructions that can actually make progress — address-ready
 * loads that have not issued, and address-ready stores still waiting
 * for their data register — plus a per-load conflict-class cache that
 * is invalidated only by events on the older store it depends on
 * (address resolution, data arrival, commit).  Issue order, stall
 * accounting and forwarding latency are bit-identical to the original
 * full-scan formulation; the golden-stats harness and the sched-index
 * differential suite pin that equivalence.
 */

#ifndef SCIQ_CORE_LSQ_HH
#define SCIQ_CORE_LSQ_HH

#include <functional>
#include <vector>

#include "common/circular_queue.hh"
#include "common/stats.hh"
#include "core/dyn_inst.hh"
#include "core/fu_pool.hh"
#include "core/rename.hh"
#include "mem/cache.hh"

namespace sciq {

class Lsq : private EventTarget
{
  public:
    struct Callbacks
    {
        /** Load data available: wake dependents, mark completed. */
        std::function<void(const DynInstPtr &, Cycle)> onLoadComplete;
        /** L1 lookup missed: segmented IQ suspends the load's chain. */
        std::function<void(const DynInstPtr &, Cycle)> onLoadMiss;
        /** Store has address + data: eligible to commit. */
        std::function<void(const DynInstPtr &, Cycle)> onStoreReady;
    };

    Lsq(unsigned capacity, Cache &dcache, FuPool &fu,
        const Scoreboard &scoreboard, Callbacks callbacks);

    bool full() const { return entries.full(); }
    std::size_t size() const { return entries.size(); }
    std::size_t freeEntries() const { return entries.freeEntries(); }

    /** Insert at dispatch (program order). */
    void insert(const DynInstPtr &inst);

    /** Address generation finished for this memory instruction. */
    void setAddrReady(const DynInstPtr &inst, Cycle cycle);

    /** Per-cycle processing: issue loads, check stores, drain buffer. */
    void tick(Cycle cycle);

    /** The store at the LSQ head commits: drain its access to the cache. */
    void commitStore(const DynInstPtr &inst, Cycle cycle);

    /** Remove a committed load from the queue. */
    void commitLoad(const DynInstPtr &inst);

    /** Remove everything younger than `youngest_kept`. */
    void squash(SeqNum youngest_kept);

    /** In-flight cache accesses or undrained committed stores exist. */
    bool busy() const;

    stats::Group &statGroup() { return statsGroup; }

    stats::Scalar loadsIssued;
    stats::Scalar loadForwards;
    stats::Scalar loadConflictStalls;
    stats::Scalar storeDrains;
    stats::Scalar portStalls;

  private:
    /**
     * Conflict scan for `load` against the older stores still queued.
     * Caches the result (and the store it depends on) on the DynInst.
     * @return 0 = free to access cache, 1 = can forward, 2 = must wait.
     */
    int classifyLoad(const DynInstPtr &load) const;

    /**
     * A store changed state (address resolved, data arrived, committed):
     * drop every cached load classification that depended on it.
     */
    void storeEvent(SeqNum seq);

    void sendLoadAccess(const DynInstPtr &inst, Cycle cycle);

    /** Data-cache reply: tag is an inflightLoads slot or kStoreDrainTag. */
    void handleEvent(Cycle when, unsigned kind, std::uint64_t tag) override;

    static constexpr std::uint64_t kStoreDrainTag = ~0ULL;

    CircularQueue<DynInstPtr> entries;
    Cache &dcache;
    FuPool &fu;
    const Scoreboard &scoreboard;
    Callbacks cb;
    stats::Group statsGroup;

    /** Committed store addresses waiting for a cache port. */
    CircularQueue<Addr> drainBuffer;

    /** Loads at the data cache, by reply tag; slots are recycled. */
    std::vector<DynInstPtr> inflightLoads;
    std::vector<std::uint32_t> freeInflight;

    /** Forwarded loads completing next cycle. */
    std::vector<std::pair<DynInstPtr, Cycle>> pendingForwards;

    /** Stores still in the queue, oldest first (conflict scans). */
    CircularQueue<DynInstPtr> storeList;

    /** Address-ready loads not yet issued, oldest first. */
    std::vector<DynInstPtr> pendingLoads;

    /** Address-ready, not-yet-completed stores, oldest first. */
    std::vector<DynInstPtr> dataWaitStores;

    unsigned pendingAccesses = 0;
};

} // namespace sciq

#endif // SCIQ_CORE_LSQ_HH
