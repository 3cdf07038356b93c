/**
 * @file
 * Deterministic seeded fault injection (DESIGN.md §13).
 *
 * Generalizes the auditor's over-promotion fault (`fault_overpromote=1`)
 * into a small menu of faults that each target one detection/recovery
 * path so negative tests can prove the path actually fires:
 *
 *   - checkpoint-blob corruption   -> trailer checksum rejection, and
 *     either the cache's warn+repair path or a sweep-level retry
 *   - transient disk-write failure -> transient CheckpointError, eaten
 *     by the sweep runner's bounded retry
 *   - forced IQ over-promotion     -> auditor promotion-bound violation
 *     (aliases IqParams::auditInjectOverPromote)
 *   - artificial commit stall      -> watchdog DeadlockError with a
 *     pipeline state dump (CoreParams::faultCommitStallAt)
 *
 * Budgeted faults (`corruptCkptReads`, `failDiskWrites`) count down
 * atomically: a budget of 1 faults exactly the first attempt and lets
 * the retry succeed; -1 faults every attempt (exhausting retries).
 * The injector is shared via shared_ptr across a job's retries so the
 * budget spans them.  Corruption is seeded so a faulted run is exactly
 * reproducible.
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

    /** Remaining checkpoint writes to fail (-1 = every write). */
    std::atomic<std::int64_t> failDiskWrites{0};

    /** True when the next checkpoint read should be corrupted. */
    bool takeCorruptRead() { return take(corruptCkptReads, corrupted_); }

    /** True when the next checkpoint write should fail. */
    bool takeDiskWriteFault() { return take(failDiskWrites, failed_); }

    /**
     * Deterministically flip bytes in `blob` (seeded by the injector's
     * seed and the count of corruptions so far, so repeated faults
     * differ from each other but never between runs).  Flipping any
     * byte breaks the FNV-1a trailer, so restore must reject the blob.
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
    std::uint64_t failedWrites() const { return failed_.load(); }
    std::uint64_t seed() const { return seed_; }

  private:
    static bool
    take(std::atomic<std::int64_t> &budget, std::atomic<std::uint64_t> &count)
    {
        std::int64_t cur = budget.load(std::memory_order_relaxed);
        while (true) {
            if (cur == 0)
                return false;
            if (cur < 0)
                break;  // unlimited: no decrement
            if (budget.compare_exchange_weak(cur, cur - 1,
                                             std::memory_order_relaxed))
                break;
        }
        count.fetch_add(1, std::memory_order_relaxed);
        return true;
    }

    std::uint64_t seed_;
    mutable std::atomic<std::uint64_t> corrupted_{0};
    std::atomic<std::uint64_t> failed_{0};
};

} // namespace sciq

#endif // SCIQ_SIM_FAULT_INJECTOR_HH
