/**
 * @file
 * Deterministic seeded fault injection (DESIGN.md §13).
 *
 * Generalizes the auditor's over-promotion fault (`fault_overpromote=1`)
 * into a small menu of faults that each target one detection/recovery
 * path so negative tests can prove the path actually fires:
 *
 *   - checkpoint-blob corruption   -> trailer checksum rejection and
 *     the warm-up's repair path (warn, re-warm cold, republish)
 *   - forced IQ over-promotion     -> auditor promotion-bound violation
 *     (aliases IqParams::auditInjectOverPromote)
 *   - artificial commit stall      -> watchdog DeadlockError with a
 *     pipeline state dump (CoreParams::faultCommitStallAt)
 *
 * The corruption budget (`corruptCkptReads`) counts down atomically: a
 * budget of 1 damages exactly the first checkpoint read, -1 damages
 * every read.  The injector is shared via shared_ptr, so one budget
 * spans every job that holds it.  Corruption is seeded so a faulted
 * run is exactly reproducible.
 */

#ifndef SCIQ_SIM_FAULT_INJECTOR_HH
#define SCIQ_SIM_FAULT_INJECTOR_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "common/random.hh"

namespace sciq {

class FaultInjector
{
  public:
    explicit FaultInjector(std::uint64_t seed = 1) : seed_(seed) {}

    /** Remaining checkpoint reads to corrupt (-1 = every read). */
    std::atomic<std::int64_t> corruptCkptReads{0};

    /** True when the next checkpoint read should be corrupted. */
    bool
    takeCorruptRead()
    {
        std::int64_t cur = corruptCkptReads.load(std::memory_order_relaxed);
        while (true) {
            if (cur == 0)
                return false;
            if (cur < 0)
                break;  // unlimited: no decrement
            if (corruptCkptReads.compare_exchange_weak(
                    cur, cur - 1, std::memory_order_relaxed))
                break;
        }
        corrupted_.fetch_add(1, std::memory_order_relaxed);
        return true;
    }

    /**
     * Deterministically flip bytes in `blob` (seeded by the injector's
     * seed and the count of corruptions so far, so repeated faults
     * differ from each other but never between runs).  Flipping any
     * byte breaks the trailer checksum, so restore must reject the blob.
     */
    void
    corrupt(std::string &blob) const
    {
        if (blob.empty())
            return;
        Random rng(seed_ + corrupted_.load(std::memory_order_relaxed));
        for (int i = 0; i < 8; ++i) {
            const std::size_t pos = rng.below(blob.size());
            blob[pos] = static_cast<char>(
                blob[pos] ^ static_cast<char>(1 + rng.below(255)));
        }
    }

    // Observability for tests and artifact reports.
    std::uint64_t corruptedReads() const { return corrupted_.load(); }
    std::uint64_t seed() const { return seed_; }

  private:
    std::uint64_t seed_;
    mutable std::atomic<std::uint64_t> corrupted_{0};
};

} // namespace sciq

#endif // SCIQ_SIM_FAULT_INJECTOR_HH
