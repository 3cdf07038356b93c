/**
 * @file
 * Top-level simulation configuration: Table 1 processor parameters plus
 * the IQ design under test and the workload to run.
 */

#ifndef SCIQ_SIM_SIM_CONFIG_HH
#define SCIQ_SIM_SIM_CONFIG_HH

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "core/ooo_core.hh"
#include "workload/workloads.hh"

namespace sciq {

class CheckpointCache;

struct SimConfig
{
    CoreParams core{};
    std::string workload = "swim";
    WorkloadParams wl{};

    /** Safety cap so misconfigured runs terminate. */
    Cycle maxCycles = 20'000'000;

    /**
     * Wall-clock deadline for the timed run (key: `deadline_sec=`);
     * 0 disables.  Exceeding it throws a DeadlockError flagged as a
     * timeout, which the sweep runner records as JobOutcome::Timeout.
     * Implemented by chunking the core's run loop, which is
     * tick-for-tick identical to an unchunked run.
     */
    double deadlineSec = 0.0;

    /** Compare committed state against the functional simulator. */
    bool validate = true;

    /**
     * Attach the cycle-level invariant auditor (DESIGN.md section 9).
     * Violations accumulate under the `core.audit` stats group and in
     * RunResult::auditViolations.  Key: `audit=1`.
     */
    bool audit = false;

    /**
     * With the auditor attached, panic (with a state dump) at the first
     * violation instead of counting on.  Key: `audit_panic=1`.
     */
    bool auditPanic = false;

    /**
     * Skip this many instructions with functional warming before the
     * timed run (the paper's fast-forward methodology at our scale).
     * Count-valued keys accept k/m/g suffixes, so `ff=300m` works.
     */
    std::uint64_t fastForward = 0;

    /**
     * Shared in-process warm-up cache (programmatic, no key; a sweep
     * front end installs one per sweep so each distinct warm-up runs
     * once and every other configuration copies its WarmState).
     * Without one a run warms up cold.
     */
    std::shared_ptr<CheckpointCache> ckptCache;

    /**
     * Apply key=value overrides, e.g.
     *   iq=segmented iq_size=512 seg_size=32 chains=128 hmp=1 lrp=1
     *   workload=swim iters=4096
     * Throws ConfigError for a value below its key's minimum, an
     * unknown iq kind or workload, and FatalError for a malformed
     * value.
     */
    void apply(const ConfigMap &overrides);

    /**
     * Every key apply() reads.  Front ends that hand argv to apply()
     * check it against this list (plus their own keys) so a mistyped
     * or removed key fails loudly instead of being ignored.
     */
    static const std::vector<std::string> &keys();

    /**
     * A front end's whole command line: "" once every token is a key
     * of keys() or `own_keys`, apply() accepted the values and the
     * resulting IQ geometry is buildable (CoreParams::checkIqGeometry),
     * else the complaint to print for the first bad token.
     */
    std::string applyCommandLine(const ConfigMap &args,
                                 std::vector<std::string> own_keys = {});

    /** One help line per key: value form, minimum, host setting. */
    static void printKeys(std::ostream &os);

    /** Print the Table 1 parameter block. */
    void printParameters(std::ostream &os) const;
};

/** ConfigError listing the kernels unless `name` is in workloadNames(). */
void checkWorkloadName(const std::string &name);

/** Construct the configurations used throughout the evaluation. */
SimConfig makeIdealConfig(unsigned iq_size, const std::string &workload);
SimConfig makeSegmentedConfig(unsigned iq_size, int chains, bool hmp,
                              bool lrp, const std::string &workload);
SimConfig makePrescheduledConfig(unsigned total_slots,
                                 const std::string &workload);
SimConfig makeFifoConfig(unsigned fifos, unsigned depth,
                         const std::string &workload);

} // namespace sciq

#endif // SCIQ_SIM_SIM_CONFIG_HH
