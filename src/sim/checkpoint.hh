/**
 * @file
 * Shared warm-ups (paper methodology, DESIGN.md §12).
 *
 * The paper fast-forwards 20 billion instructions before every
 * 100M-instruction sample; at our scale that warm-up prefix is re-run
 * for every configuration of a sweep even though the state it leaves —
 * functional-core architectural state and memory image, cache tag
 * arrays, branch/BTB/RAS/hit-miss/left-right predictor tables and
 * their statistics counters — depends only on (workload, ff length,
 * memory config, branch config), never on the IQ under test.  A
 * WarmState holds that state as plain typed copies; a sweep produces
 * it once per key, shares it read-only, and copies it into each fresh
 * timing core, with a strict contract: a restored run produces
 * bit-identical architected statistics to a cold fast-forwarded run.
 *
 * A warm state never leaves the process that made it, so it has no
 * encoding, version or checksum: the cache key fixes the workload and
 * every table geometry, and each component asserts the sizes it is
 * handed.
 */

#ifndef SCIQ_SIM_CHECKPOINT_HH
#define SCIQ_SIM_CHECKPOINT_HH

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/once_map.hh"
#include "sim/fast_forward.hh"
#include "sim/sim_config.hh"

namespace sciq {

/**
 * Cache key for a warm-up: hashes exactly the inputs that determine
 * the warm state — workload (name + generator params), fast-forward
 * length, cache geometries and predictor geometries.
 * IQ/FU/width parameters are deliberately excluded: that independence
 * is what lets a whole sweep share one warm-up per workload.
 */
std::uint64_t checkpointKeyHash(const SimConfig &config);

/** Everything a fast-forward leaves behind, as typed copies. */
struct WarmState
{
    FastForwardStats ff;
    /** Program::checksum() of the program warmed. */
    std::uint64_t programChecksum = 0;

    FunctionalCore::State func;
    Cache::State l1i;
    Cache::State l1d;
    Cache::State l2;
    HybridBranchPredictor::State bp;
    Btb::State btb;
    ReturnAddressStack::State ras;
    HitMissPredictor::State hmp;
    LeftRightPredictor::State lrp;

    /**
     * The state fastForwardUnseeded(golden, core, ...) left in `golden`
     * and `core`, which returned `ff`.  Call before the core's first
     * tick(), while its memory hierarchy is quiescent.
     */
    static WarmState capture(const FunctionalCore &golden, OooCore &core,
                             const FastForwardStats &ff,
                             std::uint64_t program_checksum);

    /**
     * Copy this state into `core` exactly as the cold path leaves it:
     * caches and predictor tables are overwritten, and the core's
     * architectural state is seeded unless the warm-up hit HALT.
     */
    void adopt(OooCore &core) const;
};

/**
 * The one warm-up store: a thread-safe, in-memory map from
 * checkpointKeyHash to a shared, immutable WarmState (DESIGN.md §12).
 *
 * Within a process each distinct warm-up is produced once: the first
 * thread to ask for a missing key becomes its producer (findOrBegin
 * returns nullptr) while later askers block until publish()/cancel();
 * that is an OnceMap.  Results stay bit-identical regardless of which
 * job ends up producing, so the election order is free to race.
 */
class CheckpointCache
{
  public:
    using Entry = std::shared_ptr<const WarmState>;

    /**
     * Return the warm state for `key`, blocking while another thread
     * produces it.  Returns nullptr to exactly one caller per missing
     * key; that caller must publish() or cancel() the key.
     */
    Entry findOrBegin(std::uint64_t key);

    /** Store a produced warm state, replacing any earlier one. */
    Entry publish(std::uint64_t key, WarmState warm);

    /** Give up producing `key` (e.g. the warm-up threw). */
    void cancel(std::uint64_t key);

    // Reuse accounting (monotonic; read after a sweep completes).
    std::uint64_t memoryHits() const { return memoryHits_.load(); }
    std::uint64_t produced() const { return produced_.load(); }

  private:
    OnceMap<std::uint64_t, WarmState> states_;
    std::atomic<std::uint64_t> memoryHits_{0};
    std::atomic<std::uint64_t> produced_{0};
};

} // namespace sciq

#endif // SCIQ_SIM_CHECKPOINT_HH
