/**
 * @file
 * Shared fault-containment plumbing for sweep job execution: exception
 * classification through the error taxonomy, Failed/Timeout result
 * rows, and failure-artifact persistence (DESIGN.md §13).  SweepRunner
 * (sweep.cc) runs every job through execute.
 */

#ifndef SCIQ_SIM_JOB_EXEC_HH
#define SCIQ_SIM_JOB_EXEC_HH

#include <cstddef>
#include <exception>
#include <filesystem>
#include <fstream>
#include <new>
#include <string>

#include "common/errors.hh"
#include "common/logging.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"

namespace sciq {
namespace job_exec {

/** The in-flight exception, classified through the taxonomy. */
struct Classified
{
    ErrorCode code = ErrorCode::Internal;
    bool timeout = false;
    std::string message;
    std::string context;  ///< captured state dump, if the error had one
};

inline Classified
classify(std::exception_ptr ep)
{
    Classified c;
    try {
        std::rethrow_exception(ep);
    } catch (const DeadlockError &e) {
        c.code = e.code();
        c.timeout = e.isTimeout();
        c.message = e.what();
        c.context = e.context();
    } catch (const SimError &e) {
        c.code = e.code();
        c.message = e.what();
        c.context = e.context();
    } catch (const std::bad_alloc &) {
        c.code = ErrorCode::Resource;
        c.message = "out of memory";
    } catch (const PanicError &e) {
        // Unclassified panic (SCIQ_ASSERT): an internal invariant.
        c.code = ErrorCode::Invariant;
        c.message = e.what();
    } catch (const FatalError &e) {
        c.code = ErrorCode::Config;
        c.message = e.what();
    } catch (const std::exception &e) {
        c.message = e.what();
    } catch (...) {
        c.message = "unknown exception";
    }
    return c;
}

/** A Failed/Timeout row: config identity, zero stats, the outcome. */
inline RunResult
failedResult(const SimConfig &config, const Classified &c)
{
    RunResult r;
    r.workload = config.workload;
    r.iqKind = iqKindName(config.core.iqKind);
    r.iqSize = config.core.iq.numEntries;
    r.chains = config.core.iqKind == IqKind::Segmented
                   ? config.core.iq.maxChains
                   : -1;
    r.outcome.status = c.timeout ? JobOutcome::Status::Timeout
                                 : JobOutcome::Status::Failed;
    r.outcome.code = c.code;
    r.outcome.message = c.message;
    return r;
}

/**
 * Persist a failure's captured context (e.g. the watchdog's pipeline
 * dump) under the artifact directory.  Best-effort: artifact I/O
 * trouble must never turn a contained failure into a fatal one.
 */
inline void
writeArtifact(const std::string &dir, std::size_t index,
              const Classified &c, const std::string &key)
{
    if (dir.empty() || c.context.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = dir + "/job" + std::to_string(index) + "-" +
                             errorCodeName(c.code) + ".dump";
    std::ofstream out(path);
    if (!out) {
        warn("cannot write failure artifact '%s'", path.c_str());
        return;
    }
    out << "sweep key: " << key << "\nerror: " << c.message << "\n\n"
        << c.context;
    inform("wrote failure artifact %s", path.c_str());
}

/**
 * Run one job once, drawing its program and golden state from the
 * sweep's `shared`.  Never throws: every exception ends up in the
 * returned outcome.
 */
inline RunResult
execute(const SimConfig &config, const std::string &key, std::size_t index,
        const std::string &artifact_dir, SweepShared *shared)
{
    try {
        return runSim(config, shared);
    } catch (...) {
        const Classified c = classify(std::current_exception());
        warn("job %zu (%s) %s: [%s] %s", index, key.c_str(),
             c.timeout ? "timed out" : "failed", errorCodeName(c.code),
             c.message.c_str());
        writeArtifact(artifact_dir, index, c, key);
        return failedResult(config, c);
    }
}

} // namespace job_exec
} // namespace sciq

#endif // SCIQ_SIM_JOB_EXEC_HH
