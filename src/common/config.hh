/**
 * @file
 * Minimal key=value configuration store used by examples and benches to
 * override simulator parameters from the command line.
 */

#ifndef SCIQ_COMMON_CONFIG_HH
#define SCIQ_COMMON_CONFIG_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace sciq {

/** Parsed key=value options with typed accessors and defaults. */
class ConfigMap
{
  public:
    ConfigMap() = default;

    /**
     * Parse argv-style "key=value" tokens.  Any other token is kept
     * for unknownKeyMessage() to report: no front end takes
     * positional arguments.
     */
    static ConfigMap fromArgs(int argc, const char *const *argv);

    /** Parse one "key=value" string; returns false if malformed. */
    bool parseLine(const std::string &line);

    void set(const std::string &key, const std::string &value);

    bool has(const std::string &key) const;

    std::string getString(const std::string &key,
                          const std::string &def = "") const;
    std::int64_t getInt(const std::string &key, std::int64_t def) const;

    /**
     * Like getInt but accepting a decimal k/m/g suffix (case
     * insensitive, powers of ten: k=1e3, m=1e6, g=1e9), so counts can
     * be written `ff=300m` or `max_cycles=2g`.  The base may be
     * fractional when suffixed (`iters=1.5m` = 1'500'000) but the
     * value, suffixed or not, must be a non-negative integer that fits
     * in int64_t; anything else is fatal.
     */
    std::int64_t getCount(const std::string &key, std::int64_t def) const;

    /** getCount, and fatal too for a value given below `min`. */
    std::int64_t getCount(const std::string &key, std::int64_t def,
                          std::int64_t min) const;

    double getDouble(const std::string &key, double def) const;
    bool getBool(const std::string &key, bool def) const;

    /**
     * Check every present key against a list of known option names.
     * Returns "" when all keys are known; otherwise a human-readable
     * complaint for the first token that is not key=value, or else for
     * the first unknown key, with a "did you mean" suggestion when a
     * known key is close enough (editDistance).
     */
    std::string unknownKeyMessage(
        const std::vector<std::string> &known) const;

  private:
    std::map<std::string, std::string> values;
    std::vector<std::string> unparsed;  ///< tokens that are not key=value
};

/**
 * A front end reads its own keys through this: `read()`'s result, or,
 * when reading throws (a malformed value, one below its minimum, an
 * unknown name), "ERROR: <why>" on stderr and exit 2, as for a bad
 * SimConfig key.
 */
template <typename Read>
auto
readArgsOrExit(Read &&read)
{
    try {
        return read();
    } catch (const std::runtime_error &e) {  // ConfigError, FatalError
        std::fprintf(stderr, "ERROR: %s\n", e.what());
        std::exit(2);
    }
}

/** Levenshtein edit distance between two option names. */
std::size_t editDistance(const std::string &a, const std::string &b);

/**
 * The known key closest to `key` in edit distance; failing that, the
 * first known key that extends `key` by a `_`-separated word; or ""
 * when nothing is plausibly meant (distance > max(2, |key|/3)).
 */
std::string closestKey(const std::string &key,
                       const std::vector<std::string> &known);

} // namespace sciq

#endif // SCIQ_COMMON_CONFIG_HH
