/**
 * @file
 * Append-only JSONL result journal for resumable sweeps (DESIGN.md §13).
 *
 * One line per finished job:
 *
 *   {"index": 7, "key": "workload=swim iters=2000 ...", "result": {...}}
 *
 * Lines are written atomically with respect to each other (one mutex,
 * one flush per line), so a sweep killed at any instant leaves at most
 * one truncated final line, which the tolerant loader skips.  On
 * restart, SweepRunner re-reads the journal, keeps every journaled-ok
 * entry whose (index, sweep key) still matches the submitted configs -
 * so editing the config list invalidates stale entries instead of
 * mispairing them - and re-runs failed, timed-out and missing jobs.
 *
 * Bit-identity contract: the result object round-trips doubles through
 * json::writeNumber's shortest round-trip formatting, so a resumed
 * sweep's writeResultsJson output is byte-identical to an uninterrupted
 * run's (tests/test_journal.cc).
 */

#ifndef SCIQ_SIM_JOURNAL_HH
#define SCIQ_SIM_JOURNAL_HH

#include <cstddef>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"

namespace sciq {

/**
 * Deterministic identity of a sweep job: every config field that
 * affects architected results, as a stable `key=value` string.  Host
 * settings (jobs, checkpoint caching, audit, fault injection) are
 * deliberately excluded - they must not invalidate journal entries.
 */
std::string sweepKey(const SimConfig &config);

/** Serialize one result as a compact single-line JSON object. */
void writeResultCompactJson(std::ostream &os, const RunResult &r);

/** Rebuild a RunResult from a parsed journal `result` object. */
RunResult resultFromJson(const json::Value &obj);

/** One successfully parsed journal line. */
struct JournalEntry
{
    std::size_t index = 0;
    std::string key;
    RunResult result;
};

/**
 * Load every well-formed line of a journal file.  Malformed lines
 * (typically one truncated tail line from a killed run) are skipped;
 * a missing file yields an empty vector.  Later lines win over earlier
 * ones with the same index, so a re-run job supersedes its old entry.
 */
std::vector<JournalEntry> loadJournal(const std::string &path);

/**
 * Resume helper for SweepRunner: load `path` and keep every journaled-ok entry whose (index, sweep
 * key) still matches `keys`, storing it into `results` and setting
 * `have[index]`.  A later non-ok line clears `have[index]` again, so a
 * job whose re-run failed is re-run once more.  Returns the number of
 * entries reused.  `results` and `have` must be sized keys.size().
 */
std::size_t applyJournal(const std::string &path,
                         const std::vector<std::string> &keys,
                         std::vector<RunResult> &results,
                         std::vector<char> &have);

/**
 * Thread-safe appender; one fully written line per record().
 *
 * Writes go straight to an O_APPEND fd (no stdio buffer), so a record
 * that returned survives the sweep process being killed, but not a
 * host crash or power loss; the loader re-runs jobs whose records were
 * lost.
 */
class ResultJournal
{
  public:
    /** Opens `path` in append mode; throws ResourceError on failure. */
    explicit ResultJournal(const std::string &path);
    ~ResultJournal();

    ResultJournal(const ResultJournal &) = delete;
    ResultJournal &operator=(const ResultJournal &) = delete;

    void record(std::size_t index, const std::string &key,
                const RunResult &result);

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    int fd_ = -1;
    std::mutex mu_;
};

} // namespace sciq

#endif // SCIQ_SIM_JOURNAL_HH
