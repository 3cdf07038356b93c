/**
 * @file
 * Synthetic stand-ins for the paper's SPEC CPU2000 subset (section 5).
 *
 * SPEC sources and Alpha binaries are not available offline, so each
 * kernel is constructed to reproduce the *property that drives the
 * paper's result* for its benchmark: cache-miss profile, branch
 * predictability, dependence-chain shape, and the amount of memory-
 * level parallelism a large instruction window can expose.  See
 * DESIGN.md section 4 for the mapping rationale.
 */

#ifndef SCIQ_WORKLOAD_WORKLOADS_HH
#define SCIQ_WORKLOAD_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/program.hh"

namespace sciq {

struct WorkloadParams
{
    /** Main loop iteration count; 0 selects the kernel's default. */
    std::uint64_t iterations = 0;
    /** Seed for data/index initialisation (deterministic). */
    std::uint64_t seed = 12345;
    /** Footprint multiplier (1.0 = the calibrated default). */
    double scale = 1.0;
};

// The seven benchmarks of Figure 2 / Table 2 plus gcc (section 5).
Program buildSwim(const WorkloadParams &params = {});
Program buildMgrid(const WorkloadParams &params = {});
Program buildApplu(const WorkloadParams &params = {});
Program buildEquake(const WorkloadParams &params = {});
Program buildAmmp(const WorkloadParams &params = {});
Program buildGcc(const WorkloadParams &params = {});
Program buildTwolf(const WorkloadParams &params = {});
Program buildVortex(const WorkloadParams &params = {});

/** Names in the paper's presentation order. */
const std::vector<std::string> &workloadNames();

/** The floating-point subset (the big-window winners). */
const std::vector<std::string> &fpWorkloadNames();

/** Build a workload by name; fatals on unknown names. */
Program buildWorkload(const std::string &name,
                      const WorkloadParams &params = {});

/**
 * Stable fingerprint of (name, params) — everything the workload
 * generator consumes, so equal fingerprints mean buildWorkload()
 * produces identical programs.  Part of the warm-up cache key.
 */
std::uint64_t workloadFingerprint(const std::string &name,
                                  const WorkloadParams &params);

} // namespace sciq

#endif // SCIQ_WORKLOAD_WORKLOADS_HH
