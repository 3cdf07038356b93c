/**
 * @file
 * Fast-forwarding with functional warming.
 *
 * The paper measures a 100M-instruction sample after skipping 20
 * billion instructions; the skipped region leaves the caches and
 * predictors warm.  This facility reproduces that methodology at our
 * scale: it executes a prefix of the program on the functional core
 * while *functionally warming* the cache tag arrays, the branch
 * predictor, the BTB and the hit/miss predictor, then seeds the timing
 * core's architectural state so measurement starts mid-program.
 */

#ifndef SCIQ_SIM_FAST_FORWARD_HH
#define SCIQ_SIM_FAST_FORWARD_HH

#include <cstdint>

#include "core/ooo_core.hh"
#include "isa/functional_core.hh"

namespace sciq {

struct FastForwardStats
{
    std::uint64_t instsSkipped = 0;
    std::uint64_t memAccessesWarmed = 0;
    std::uint64_t branchesWarmed = 0;
    bool hitHalt = false;  ///< the program ended inside the prefix
};

/**
 * Execute up to `insts` instructions on `golden`, warming `core`'s
 * caches and predictors, then seed `core`'s architectural state from
 * a copy of the functional state (unless the program halted inside
 * the prefix).  Call before the core's first tick().
 */
FastForwardStats fastForward(FunctionalCore &golden, OooCore &core,
                             std::uint64_t insts);

/**
 * The same warming, leaving `core` unseeded: for a caller that still
 * reads `golden` (WarmState::capture) and then moves its memory image
 * into the core instead of copying it.
 */
FastForwardStats fastForwardUnseeded(FunctionalCore &golden, OooCore &core,
                                     std::uint64_t insts);

} // namespace sciq

#endif // SCIQ_SIM_FAST_FORWARD_HH
