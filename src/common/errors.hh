/**
 * @file
 * Structured simulation-error taxonomy (DESIGN.md §13).
 *
 * Every failure a sweep can encounter is classified by an ErrorCode and
 * carried by a SimError subclass, so the sweep runner can contain it
 * and surface the failure in machine-readable results instead of
 * tearing down the whole batch.
 *
 * The split of responsibilities with logging.hh: panic()/PanicError is
 * the low-level "the simulator itself is broken" escape hatch used by
 * SCIQ_ASSERT; SimError is the *classified* layer the fault-containment
 * machinery speaks.  The sweep runner maps stray PanicError/FatalError
 * into the taxonomy (invariant/config) at its catch boundary.
 */

#ifndef SCIQ_COMMON_ERRORS_HH
#define SCIQ_COMMON_ERRORS_HH

#include <stdexcept>
#include <string>

namespace sciq {

/** What went wrong, at the granularity recovery policy cares about. */
enum class ErrorCode
{
    None,        ///< no error (JobOutcome of a successful run)
    Config,      ///< bad user configuration (unknown key, bad range)
    Workload,    ///< workload construction failed (unknown name, ...)
    Deadlock,    ///< watchdog: no forward progress / deadline exceeded
    Invariant,   ///< internal invariant violated (auditor panic path)
    Resource,    ///< host memory exhausted (std::bad_alloc in a job)
    Internal,    ///< unclassified exception escaping a run
};

/** Stable lower-case name for the result JSON (`error_code`). */
const char *errorCodeName(ErrorCode code);

/**
 * Base class of every classified simulation error.
 *
 * @param context  Captured diagnostic state (e.g. the watchdog's
 *                 pipeline dump) - kept out of what() so log lines stay
 *                 one line; artifact writers persist it separately.
 */
class SimError : public std::runtime_error
{
  public:
    SimError(ErrorCode code, const std::string &msg,
             std::string context = "")
        : std::runtime_error(msg), code_(code), context_(std::move(context))
    {
    }

    ErrorCode code() const { return code_; }
    const std::string &context() const { return context_; }

  private:
    ErrorCode code_;
    std::string context_;
};

/** Bad user configuration: unknown key, out-of-range value, ... */
class ConfigError : public SimError
{
  public:
    explicit ConfigError(const std::string &msg)
        : SimError(ErrorCode::Config, msg)
    {
    }
};

/** Workload construction failed (unknown name, bad generator params). */
class WorkloadError : public SimError
{
  public:
    explicit WorkloadError(const std::string &msg)
        : SimError(ErrorCode::Workload, msg)
    {
    }
};

/**
 * The watchdog aborted a run: no instruction committed for the
 * configured window (wedged scheduler), or the wall-clock deadline
 * expired (livelock / runaway configuration).  Carries the pipeline
 * state dump captured at abort time.
 */
class DeadlockError : public SimError
{
  public:
    DeadlockError(const std::string &msg, std::string state_dump,
                  bool wall_clock = false)
        : SimError(ErrorCode::Deadlock, msg, std::move(state_dump)),
          wallClock_(wall_clock)
    {
    }

    /** True when the wall-clock deadline (not the commit watchdog) fired. */
    bool isTimeout() const { return wallClock_; }

  private:
    bool wallClock_;
};

/**
 * An internal invariant was violated with audit_panic=1: the auditor's
 * panic path, carrying the offending structure's dump as context.
 */
class InvariantError : public SimError
{
  public:
    InvariantError(const std::string &msg, std::string state_dump = "")
        : SimError(ErrorCode::Invariant, msg, std::move(state_dump))
    {
    }
};

} // namespace sciq

#endif // SCIQ_COMMON_ERRORS_HH
