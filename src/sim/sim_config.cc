#include "sim_config.hh"

#include "sim/fault_injector.hh"

#include "common/errors.hh"
#include "common/logging.hh"

namespace sciq {

void
SimConfig::apply(const ConfigMap &cfg)
{
    if (cfg.has("iq")) {
        const std::string kind = cfg.getString("iq", "segmented");
        if (kind == "ideal")
            core.iqKind = IqKind::Ideal;
        else if (kind == "segmented")
            core.iqKind = IqKind::Segmented;
        else if (kind == "prescheduled")
            core.iqKind = IqKind::Prescheduled;
        else if (kind == "fifo")
            core.iqKind = IqKind::Fifo;
        else
            throw ConfigError("unknown iq kind '" + kind + "'");
    }
    core.iq.numEntries = static_cast<unsigned>(
        cfg.getInt("iq_size", core.iq.numEntries));
    core.iq.segmentSize = static_cast<unsigned>(
        cfg.getInt("seg_size", core.iq.segmentSize));
    core.iq.maxChains =
        static_cast<int>(cfg.getInt("chains", core.iq.maxChains));
    core.iq.useHmp = cfg.getBool("hmp", core.iq.useHmp);
    core.iq.useLrp = cfg.getBool("lrp", core.iq.useLrp);
    core.iq.enablePushdown =
        cfg.getBool("pushdown", core.iq.enablePushdown);
    core.iq.enableBypass = cfg.getBool("bypass", core.iq.enableBypass);
    core.iq.dynamicResize =
        cfg.getBool("resize", core.iq.dynamicResize);
    core.iq.resizeInterval = static_cast<unsigned>(
        cfg.getInt("resize_interval", core.iq.resizeInterval));
    core.iq.issueBufferSize = static_cast<unsigned>(
        cfg.getInt("issue_buffer", core.iq.issueBufferSize));
    core.iq.preschedLineWidth = static_cast<unsigned>(
        cfg.getInt("line_width", core.iq.preschedLineWidth));
    core.iq.numFifos =
        static_cast<unsigned>(cfg.getInt("fifos", core.iq.numFifos));
    core.iq.fifoDepth = static_cast<unsigned>(
        cfg.getInt("depth", core.iq.fifoDepth));
    core.modelWrongPath =
        cfg.getBool("wrong_path", core.modelWrongPath);

    workload = cfg.getString("workload", workload);
    wl.iterations = static_cast<std::uint64_t>(
        cfg.getCount("iters", static_cast<std::int64_t>(wl.iterations)));
    wl.seed = static_cast<std::uint64_t>(
        cfg.getInt("seed", static_cast<std::int64_t>(wl.seed)));
    wl.scale = cfg.getDouble("scale", wl.scale);
    maxCycles = static_cast<Cycle>(
        cfg.getCount("max_cycles", static_cast<std::int64_t>(maxCycles)));
    validate = cfg.getBool("validate", validate);
    audit = cfg.getBool("audit", audit);
    auditPanic = cfg.getBool("audit_panic", auditPanic);
    fastForward = static_cast<std::uint64_t>(
        cfg.getCount("ff", static_cast<std::int64_t>(fastForward)));
    bbCache = cfg.getBool("bb_cache", bbCache);
    ckptDir = cfg.getString("ckpt_dir", ckptDir);

    core.watchdogCycles = static_cast<Cycle>(cfg.getCount(
        "watchdog_cycles", static_cast<std::int64_t>(core.watchdogCycles)));
    deadlineSec = cfg.getDouble("deadline_sec", deadlineSec);

    // Fault-injection keys (DESIGN.md §13).  `fault_commit_stall` and
    // `fault_overpromote` configure faults that live inside the core;
    // the checkpoint-read fault builds a FaultInjector on demand.
    core.faultCommitStallAt = static_cast<Cycle>(cfg.getInt(
        "fault_commit_stall",
        static_cast<std::int64_t>(core.faultCommitStallAt)));
    core.iq.auditInjectOverPromote = cfg.getBool(
        "fault_overpromote", core.iq.auditInjectOverPromote);
    if (cfg.has("fault_ckpt_corrupt")) {
        if (!faults) {
            faults = std::make_shared<FaultInjector>(static_cast<
                std::uint64_t>(cfg.getInt("fault_seed", 1)));
        }
        faults->corruptCkptReads = cfg.getInt("fault_ckpt_corrupt", 0);
    }
}

const std::vector<std::string> &
SimConfig::keys()
{
    static const std::vector<std::string> list = {
        "iq", "iq_size", "seg_size", "chains", "hmp", "lrp", "pushdown",
        "bypass", "resize", "resize_interval", "issue_buffer",
        "line_width", "fifos", "depth", "wrong_path", "workload", "iters",
        "seed", "scale", "max_cycles", "validate", "audit", "audit_panic",
        "ff", "bb_cache", "ckpt_dir", "watchdog_cycles", "deadline_sec",
        "fault_commit_stall", "fault_overpromote", "fault_seed",
        "fault_ckpt_corrupt",
    };
    return list;
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
