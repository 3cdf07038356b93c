#include "config.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <numeric>

#include "logging.hh"

namespace sciq {

ConfigMap
ConfigMap::fromArgs(int argc, const char *const *argv)
{
    ConfigMap cfg;
    for (int i = 1; i < argc; ++i) {
        std::string tok(argv[i]);
        if (!cfg.parseLine(tok))
            cfg.unparsed.push_back(tok);
    }
    return cfg;
}

bool
ConfigMap::parseLine(const std::string &line)
{
    auto eq = line.find('=');
    if (eq == std::string::npos || eq == 0)
        return false;
    set(line.substr(0, eq), line.substr(eq + 1));
    return true;
}

void
ConfigMap::set(const std::string &key, const std::string &value)
{
    values[key] = value;
}

bool
ConfigMap::has(const std::string &key) const
{
    return values.count(key) > 0;
}

std::string
ConfigMap::getString(const std::string &key, const std::string &def) const
{
    auto it = values.find(key);
    return it == values.end() ? def : it->second;
}

std::int64_t
ConfigMap::getInt(const std::string &key, std::int64_t def) const
{
    auto it = values.find(key);
    if (it == values.end())
        return def;
    char *end = nullptr;
    std::int64_t v = std::strtoll(it->second.c_str(), &end, 0);
    if (end == it->second.c_str() || *end != '\0')
        fatal("config key '%s': '%s' is not an integer", key.c_str(),
              it->second.c_str());
    return v;
}

std::int64_t
ConfigMap::getCount(const std::string &key, std::int64_t def) const
{
    auto it = values.find(key);
    if (it == values.end())
        return def;
    const std::string &raw = it->second;

    long double mult = 0;
    switch (raw.empty() ? '\0' : raw.back()) {
      case 'k': case 'K': mult = 1e3L; break;
      case 'm': case 'M': mult = 1e6L; break;
      case 'g': case 'G': mult = 1e9L; break;
      default: {
        const std::int64_t plain = getInt(key, def);  // hex included
        if (plain < 0)
            fatal("config key '%s': '%s' is negative; counts are >= 0",
                  key.c_str(), raw.c_str());
        return plain;
      }
    }

    const std::string body = raw.substr(0, raw.size() - 1);
    // Restrict the suffixed body to plain decimal: strtold alone would
    // also accept hex floats ("0x10k"), "inf" and "nan", which are
    // never intended counts and the hex case silently parses to a
    // wildly different value than the 0x prefix suggests.
    bool decimal = !body.empty();
    bool seen_digit = false;
    for (std::size_t i = 0; i < body.size() && decimal; ++i) {
        const char ch = body[i];
        if (ch >= '0' && ch <= '9')
            seen_digit = true;
        else if (!((ch == '+' || ch == '-') && i == 0) && ch != '.')
            decimal = false;
    }
    char *end = nullptr;
    const long double v =
        decimal && seen_digit ? std::strtold(body.c_str(), &end) : 0;
    if (!decimal || !seen_digit || end == body.c_str() || *end != '\0')
        fatal("config key '%s': '%s' is not a count (expected e.g. "
              "300m, 1.5g)", key.c_str(), raw.c_str());
    const long double scaled = v * mult;
    if (scaled < 0 || scaled != std::floor(scaled))
        fatal("config key '%s': '%s' does not scale to a non-negative "
              "integer", key.c_str(), raw.c_str());
    if (scaled > static_cast<long double>(
            std::numeric_limits<std::int64_t>::max()))
        fatal("config key '%s': '%s' overflows a 64-bit count",
              key.c_str(), raw.c_str());
    return static_cast<std::int64_t>(scaled);
}

std::int64_t
ConfigMap::getCount(const std::string &key, std::int64_t def,
                    std::int64_t min) const
{
    const std::int64_t count = getCount(key, def);
    if (has(key) && count < min)
        fatal("config key '%s': '%s' is below its minimum %lld", key.c_str(),
              getString(key).c_str(), static_cast<long long>(min));
    return count;
}

double
ConfigMap::getDouble(const std::string &key, double def) const
{
    auto it = values.find(key);
    if (it == values.end())
        return def;
    char *end = nullptr;
    double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        fatal("config key '%s': '%s' is not a number", key.c_str(),
              it->second.c_str());
    return v;
}

bool
ConfigMap::getBool(const std::string &key, bool def) const
{
    auto it = values.find(key);
    if (it == values.end())
        return def;
    std::string v = it->second;
    std::transform(v.begin(), v.end(), v.begin(), ::tolower);
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    fatal("config key '%s': '%s' is not a boolean", key.c_str(),
          it->second.c_str());
}

std::size_t
editDistance(const std::string &a, const std::string &b)
{
    // Classic two-row Wagner-Fischer; option names are short, so the
    // quadratic cost is irrelevant.
    std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
    std::iota(prev.begin(), prev.end(), std::size_t{0});
    for (std::size_t i = 1; i <= a.size(); ++i) {
        cur[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t subst =
                prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, subst});
        }
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

std::string
closestKey(const std::string &key, const std::vector<std::string> &known)
{
    const std::size_t cutoff = std::max<std::size_t>(2, key.size() / 3);
    std::string best;
    std::size_t bestDist = cutoff + 1;
    for (const std::string &candidate : known) {
        const std::size_t d = editDistance(key, candidate);
        if (d < bestDist) {
            bestDist = d;
            best = candidate;
        }
    }
    if (!best.empty())
        return best;
    // No near miss: suggest a key that extends this one by whole words
    // (`bench` -> `bench_out`).
    for (const std::string &candidate : known) {
        if (candidate.size() > key.size() + 1 &&
            candidate.compare(0, key.size(), key) == 0 &&
            candidate[key.size()] == '_')
            return candidate;
    }
    return "";
}

std::string
ConfigMap::unknownKeyMessage(const std::vector<std::string> &known) const
{
    if (!unparsed.empty()) {
        const bool hasHelp =
            std::find(known.begin(), known.end(), "help") != known.end();
        return "unexpected argument '" + unparsed.front() +
               "' (options are key=value" +
               (hasHelp ? "; try help=1)" : ")");
    }
    for (const auto &[key, value] : values) {
        if (std::find(known.begin(), known.end(), key) != known.end())
            continue;
        std::string msg = "unknown option '" + key + "'";
        const std::string suggestion = closestKey(key, known);
        if (!suggestion.empty())
            msg += " (did you mean '" + suggestion + "'?)";
        return msg;
    }
    return "";
}

} // namespace sciq
