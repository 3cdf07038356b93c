#include "sim_config.hh"

#include <algorithm>
#include <limits>
#include <optional>
#include <ranges>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <variant>

#include "common/errors.hh"
#include "sim/sweep.hh"

namespace sciq {

namespace {

/** How a key's value is written on the command line. */
enum class ValueKind { Bool, Int, Count, Double, String, Iq };
using enum ValueKind;

using FieldPtr = std::variant<bool *, int *, unsigned *, std::uint64_t *,
                              double *, std::string *, IqKind *>;

/**
 * One config key.  apply(), keys(), sweepKey() and printKeys() are
 * loops over these rows, so a key is written down once.
 */
struct KeyRow
{
    const char *name;
    ValueKind kind;
    bool changesResult;      ///< in sweepKey; else a host setting
    std::optional<int> min;  ///< smallest accepted value
    /** The field the key writes. */
    FieldPtr (*field)(SimConfig &);
};

#define FIELD(member) [](SimConfig &c) -> FieldPtr { return &c.member; }

constexpr bool kResult = true;
constexpr bool kHost = false;

constexpr KeyRow kKeys[] = {
    {"iq", Iq, kResult, {}, FIELD(core.iqKind)},
    {"iq_size", Int, kResult, 1, FIELD(core.iq.numEntries)},
    {"seg_size", Int, kResult, 1, FIELD(core.iq.segmentSize)},
    {"chains", Int, kResult, {}, FIELD(core.iq.maxChains)},
    {"hmp", Bool, kResult, {}, FIELD(core.iq.useHmp)},
    {"lrp", Bool, kResult, {}, FIELD(core.iq.useLrp)},
    {"pushdown", Bool, kResult, {}, FIELD(core.iq.enablePushdown)},
    {"bypass", Bool, kResult, {}, FIELD(core.iq.enableBypass)},
    {"resize", Bool, kResult, {}, FIELD(core.iq.dynamicResize)},
    {"resize_interval", Int, kResult, {}, FIELD(core.iq.resizeInterval)},
    {"issue_buffer", Int, kResult, {}, FIELD(core.iq.issueBufferSize)},
    {"line_width", Int, kResult, 1, FIELD(core.iq.preschedLineWidth)},
    {"fifos", Int, kResult, 1, FIELD(core.iq.numFifos)},
    {"depth", Int, kResult, {}, FIELD(core.iq.fifoDepth)},
    {"wrong_path", Bool, kResult, {}, FIELD(core.modelWrongPath)},
    {"workload", String, kResult, {}, FIELD(workload)},
    {"iters", Count, kResult, {}, FIELD(wl.iterations)},
    {"seed", Int, kResult, {}, FIELD(wl.seed)},
    {"scale", Double, kResult, {}, FIELD(wl.scale)},
    {"max_cycles", Count, kResult, {}, FIELD(maxCycles)},
    {"validate", Bool, kHost, {}, FIELD(validate)},
    {"audit", Bool, kHost, {}, FIELD(audit)},
    {"audit_panic", Bool, kHost, {}, FIELD(auditPanic)},
    {"ff", Count, kResult, {}, FIELD(fastForward)},
    {"watchdog_cycles", Count, kHost, {}, FIELD(core.watchdogCycles)},
    {"deadline_sec", Double, kHost, 0, FIELD(deadlineSec)},
    // Faults (DESIGN.md §13), both inside the core.
    {"fault_commit_stall", Int, kResult, {}, FIELD(core.faultCommitStallAt)},
    {"fault_overpromote", Bool, kResult, {},
     FIELD(core.iq.auditInjectOverPromote)},
};

#undef FIELD

IqKind
parseIqKind(const std::string &name)
{
    for (IqKind kind : {IqKind::Ideal, IqKind::Segmented,
                        IqKind::Prescheduled, IqKind::Fifo}) {
        if (name == iqKindName(kind))
            return kind;
    }
    throw ConfigError("config key 'iq': unknown iq kind '" + name + "'");
}

} // namespace

void
SimConfig::apply(const ConfigMap &cfg)
{
    for (const KeyRow &row : kKeys) {
        if (!cfg.has(row.name))
            continue;
        const std::string key = row.name;
        // The minimum is checked on the value as written, before the
        // cast to an unsigned field could wrap a negative one around.
        if (row.min && cfg.getDouble(key, 0) < *row.min) {
            throw ConfigError("config key '" + key + "': '" +
                              cfg.getString(key) +
                              "' is below its minimum " +
                              std::to_string(*row.min));
        }
        std::visit(
            [&]<typename T>(T *dst) {
                if constexpr (std::is_same_v<T, std::string>)
                    *dst = cfg.getString(key);
                else if constexpr (std::is_same_v<T, IqKind>)
                    *dst = parseIqKind(cfg.getString(key));
                else if constexpr (std::is_same_v<T, bool>)
                    *dst = cfg.getBool(key, false);
                else if constexpr (std::is_floating_point_v<T>)
                    *dst = cfg.getDouble(key, 0);
                else
                    *dst = static_cast<T>(row.kind == Count
                                              ? cfg.getCount(key, 0)
                                              : cfg.getInt(key, 0));
            },
            row.field(*this));
    }

    if (cfg.has("workload"))
        checkWorkloadName(workload);
}

std::string
SimConfig::applyCommandLine(const ConfigMap &args,
                            std::vector<std::string> own_keys)
{
    own_keys.insert(own_keys.end(), keys().begin(), keys().end());
    std::string complaint = args.unknownKeyMessage(own_keys);
    if (complaint.empty()) {
        try {
            apply(args);
            core.checkIqGeometry();
        } catch (const std::runtime_error &e) {  // ConfigError, FatalError
            complaint = e.what();
        }
    }
    return complaint;
}

const std::vector<std::string> &
SimConfig::keys()
{
    static const auto names = kKeys | std::views::transform(&KeyRow::name);
    static const std::vector<std::string> list(names.begin(), names.end());
    return list;
}

void
SimConfig::printKeys(std::ostream &os)
{
    static const char *const forms[] = {
        "0|1", "N", "N[k|m|g]", "X", "TEXT",
        "ideal|segmented|prescheduled|fifo"};
    for (const KeyRow &row : kKeys) {
        std::string line = std::string(row.name) + "=" +
                           forms[static_cast<int>(row.kind)];
        if (row.min || !row.changesResult)
            line.resize(std::max<std::size_t>(line.size(), 26), ' ');
        if (row.min)
            line += "  >= " + std::to_string(*row.min);
        os << "  " << line << (row.changesResult ? "\n" : "  host setting\n");
    }
}

std::string
sweepKey(const SimConfig &config)
{
    // The field accessors take a SimConfig &; here they only read.
    static SimConfig defaults;
    SimConfig &cfg = const_cast<SimConfig &>(config);
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    for (const KeyRow &row : kKeys) {
        if (!row.changesResult)
            continue;
        std::visit(
            [&]<typename T>(T *value) {
                if (*value == *std::get<T *>(row.field(defaults)))
                    return;
                os << (os.tellp() > 0 ? " " : "") << row.name << '=';
                if constexpr (std::is_same_v<T, IqKind>)
                    os << iqKindName(*value);
                else
                    os << *value;
            },
            row.field(cfg));
    }
    return os.str();
}

void
SimConfig::printParameters(std::ostream &os) const
{
    CoreParams p = core;
    p.finalize();
    os << "Processor parameters (paper Table 1):\n"
       << "  front end          : " << p.fetchToDecode
       << " cycles fetch-to-decode, " << p.decodeToDispatch
       << " cycles decode-to-dispatch\n"
       << "  fetch              : up to " << p.fetchWidth
       << " insts/cycle, max " << p.maxBranchesPerFetch
       << " branches/cycle\n"
       << "  dispatch/issue/commit bandwidth: " << p.dispatchWidth
       << " insts/cycle\n"
       << "  IQ design          : " << iqKindName(p.iqKind) << ", "
       << p.iq.numEntries << " entries";
    if (p.iqKind == IqKind::Segmented) {
        os << " (" << p.iq.numEntries / p.iq.segmentSize << " segments of "
           << p.iq.segmentSize << "), chains="
           << (p.iq.maxChains < 0 ? std::string("unlimited")
                                  : std::to_string(p.iq.maxChains))
           << (p.iq.useHmp ? ", HMP" : "") << (p.iq.useLrp ? ", LRP" : "");
    }
    os << "\n  ROB                : " << p.robSize << " entries\n"
       << "  function units     : 8 each of intALU/intMUL/fpADD/fpMUL/"
          "cache port\n"
       << "  latencies          : int mul 3, div 20; fp add 2, mul 4, "
          "div 12, sqrt 24\n"
       << "  L1I/L1D            : 64 KB 2-way 64 B lines; 1 / 3 cycle; "
          "32 MSHRs\n"
       << "  L2                 : 1 MB 4-way 64 B lines, 10-cycle, "
          "64 B/cycle to L1\n"
       << "  memory             : 100-cycle latency, 8 B/cycle\n"
       << "  branch predictor   : 21264-style hybrid local/global\n";
}

void
checkWorkloadName(const std::string &name)
{
    const std::vector<std::string> &names = workloadNames();
    if (std::ranges::find(names, name) != names.end())
        return;
    std::string valid;
    for (const std::string &n : names)
        valid += (valid.empty() ? "" : ", ") + n;
    throw ConfigError("config key 'workload': unknown workload '" + name +
                      "' (one of " + valid + ")");
}

SimConfig
makeIdealConfig(unsigned iq_size, const std::string &workload)
{
    SimConfig cfg;
    cfg.core.iqKind = IqKind::Ideal;
    cfg.core.iq.numEntries = iq_size;
    cfg.workload = workload;
    return cfg;
}

SimConfig
makeSegmentedConfig(unsigned iq_size, int chains, bool hmp, bool lrp,
                    const std::string &workload)
{
    SimConfig cfg;
    cfg.core.iqKind = IqKind::Segmented;
    cfg.core.iq.numEntries = iq_size;
    cfg.core.iq.segmentSize = 32;
    cfg.core.iq.maxChains = chains;
    cfg.core.iq.useHmp = hmp;
    cfg.core.iq.useLrp = lrp;
    cfg.workload = workload;
    return cfg;
}

SimConfig
makePrescheduledConfig(unsigned total_slots, const std::string &workload)
{
    SimConfig cfg;
    cfg.core.iqKind = IqKind::Prescheduled;
    cfg.core.iq.numEntries = total_slots;
    cfg.core.iq.issueBufferSize = 32;
    cfg.core.iq.preschedLineWidth = 12;
    cfg.workload = workload;
    return cfg;
}

SimConfig
makeFifoConfig(unsigned fifos, unsigned depth, const std::string &workload)
{
    SimConfig cfg;
    cfg.core.iqKind = IqKind::Fifo;
    cfg.core.iq.numEntries = fifos * depth;
    cfg.core.iq.numFifos = fifos;
    cfg.core.iq.fifoDepth = depth;
    cfg.workload = workload;
    return cfg;
}

} // namespace sciq
