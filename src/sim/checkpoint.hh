/**
 * @file
 * Warm-state checkpoint/restore (paper methodology, DESIGN.md §12).
 *
 * The paper fast-forwards 20 billion instructions before every
 * 100M-instruction sample; at our scale that warm-up prefix is re-run
 * for every configuration of a sweep even though the produced state —
 * functional-core architectural state and memory image, cache tag
 * arrays, branch/BTB/RAS/hit-miss predictor tables — depends only on
 * (workload, ff length, memory config, branch config), never on the IQ
 * under test.  This module snapshots that state once into a versioned
 * binary blob and restores it into fresh timing cores in milliseconds,
 * with a strict contract: a restored run produces bit-identical
 * architected statistics to a cold fast-forwarded run.
 *
 * Blob layout (all little-endian, serial::Writer encoding):
 *
 *   "SCIQCKPT" magic | u32 version | u64 key hash |
 *   workload name/params | u64 ff insts | u64 program checksum |
 *   "FFST" FastForwardStats | "FUNC" FunctionalCore |
 *   "L1I_" "L1D_" "L2__" caches | "BPRD" "BTB_" "RAS_" "HMP_" "LRP_"
 *   predictors | "END_" | u64 serial::hashBytes trailer over everything
 *   before it.
 *
 * Each table inside a section (cache lines, BTB entries, counter
 * tables, local histories, RAS slots, registers, memory pages) is one
 * run of fixed-width records after its count or geometry fields, and
 * is decoded after one bounds check for the whole run (DESIGN.md §12
 * lists the records).
 *
 * The trailer detects corruption/truncation before any section is
 * parsed; the key hash and program checksum reject checkpoints taken
 * under a different workload/memory/branch configuration.  All
 * rejection paths throw CheckpointError with a specific message; the
 * one caller, Simulator's warm-up, answers every one by warming up
 * cold and republishing.
 */

#ifndef SCIQ_SIM_CHECKPOINT_HH
#define SCIQ_SIM_CHECKPOINT_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/errors.hh"
#include "common/once_map.hh"
#include "sim/fast_forward.hh"
#include "sim/sim_config.hh"

namespace sciq {

// CheckpointError lives in common/errors.hh as part of the structured
// error taxonomy (DESIGN.md §13); re-exported here for its users.

/**
 * Format version; bump on any layout or hash change.  Version 2 moved
 * the trailer and the program checksum's data bytes to
 * serial::hashBytes; version 3 made that hash four-lane.
 */
constexpr std::uint32_t kCheckpointVersion = 3;

/**
 * Cache key for a warm-up: hashes exactly the inputs that determine
 * the saved bits — workload (name + generator params), fast-forward
 * length, cache geometries and predictor geometries.
 * IQ/FU/width parameters are deliberately excluded: that independence
 * is what lets a whole sweep share one warm-up per workload.
 */
std::uint64_t checkpointKeyHash(const SimConfig &config);

/**
 * Serialize the warm state produced by fastForward(golden, core, ...).
 * Must be called before the core's first tick(), while the memory
 * hierarchy is quiescent.
 */
std::string saveCheckpoint(const SimConfig &config,
                           const FunctionalCore &golden, OooCore &core,
                           const FastForwardStats &ff);

/**
 * Validate `blob` against (config, program) and restore it into `core`
 * exactly as the cold path would: caches and predictor tables are
 * overwritten, and the core's architectural state is seeded unless the
 * warm-up hit HALT.  The FUNC section is decoded straight into the
 * registers, PC and memory image the core is seeded with.  Returns the
 * FastForwardStats recorded at save time.  Throws CheckpointError on
 * any mismatch or corruption.
 */
FastForwardStats restoreCheckpoint(const std::string &blob,
                                   const SimConfig &config,
                                   const Program &program, OooCore &core);

/** The same, for a caller that already holds program.checksum(). */
FastForwardStats restoreCheckpoint(const std::string &blob,
                                   const SimConfig &config,
                                   std::uint64_t program_checksum,
                                   OooCore &core);

/**
 * The one warm-up store: a thread-safe, in-memory blob cache keyed by
 * checkpointKeyHash (DESIGN.md §12).
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
    using Blob = std::shared_ptr<const std::string>;

    /**
     * Return the blob for `key`, blocking while another thread
     * produces it.  Returns nullptr to exactly one caller per missing
     * key; that caller must publish() or cancel() the key.
     */
    Blob findOrBegin(std::uint64_t key);

    /** Store a produced blob, replacing any earlier one. */
    Blob publish(std::uint64_t key, std::string blob);

    /** Give up producing `key` (e.g. the warm-up threw). */
    void cancel(std::uint64_t key);

    // Reuse accounting (monotonic; read after a sweep completes).
    std::uint64_t memoryHits() const { return memoryHits_.load(); }
    std::uint64_t produced() const { return produced_.load(); }

  private:
    OnceMap<std::uint64_t, std::string> blobs_;
    std::atomic<std::uint64_t> memoryHits_{0};
    std::atomic<std::uint64_t> produced_{0};
};

} // namespace sciq

#endif // SCIQ_SIM_CHECKPOINT_HH
