#include "simulator.hh"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <sstream>
#include <utility>

#include "common/logging.hh"
#include "iq/segmented_iq.hh"
#include "isa/functional_core.hh"
#include "sim/audit.hh"
#include "sim/checkpoint.hh"
#include "sim/fast_forward.hh"
#include "sim/sweep.hh"

namespace sciq {

const char *
jobStatusName(JobOutcome::Status status)
{
    switch (status) {
      case JobOutcome::Status::Ok: return "ok";
      case JobOutcome::Status::Failed: return "failed";
      case JobOutcome::Status::Timeout: return "timeout";
    }
    return "failed";
}

GoldenState
GoldenState::run(const Program &program, std::uint64_t insts)
{
    FunctionalCore golden(program);
    golden.run(insts);
    return {golden.regFile(), std::move(golden.memory())};
}

bool
GoldenState::matches(const OooCore &core) const
{
    for (RegIndex reg = 1; reg < kNumArchRegs; ++reg) {
        if (regs[reg] != core.commitRegs()[reg])
            return false;
    }
    return core.commitMemory().equalContents(memory);
}

Simulator::Simulator(const SimConfig &cfg, SweepShared *shared)
    : config(cfg), shared_(shared)
{
    if (shared_) {
        auto input = shared_->program(config);
        program_ = std::shared_ptr<const Program>(input, &input->program);
        programChecksum_ = input->checksum;
    } else {
        program_ = std::make_shared<const Program>(
            buildWorkload(config.workload, config.wl));
    }
    // A fast-forwarded core is seeded with the warm-up's memory image
    // (prepare()), which replaces the program image.
    core_ = std::make_unique<OooCore>(*program_, config.core,
                                      /*load_image=*/config.fastForward == 0);
    if (config.audit) {
        auditor_ = std::make_unique<Auditor>(config.auditPanic);
        auditor_->attach(*core_);
    }

    warmStats_.addScalar("seconds", &warmSecondsStat_,
                         "wall-clock seconds in functional warming");
    warmStats_.addScalar("insts_per_sec", &warmIpsStat_,
                         "functional-warming throughput");
    bbStats_.addScalar("blocks", &bbBlocksStat_,
                       "basic blocks discovered");
    bbStats_.addScalar("ops_cached", &bbOpsStat_,
                       "micro-ops across cached blocks");
    bbStats_.addScalar("trace_hits", &bbTraceHitsStat_,
                       "block lookups served from the cache");
    bbStats_.addScalar("succ_hits", &bbSuccHitsStat_,
                       "successor inline-cache hits");
    warmStats_.addChild(&bbStats_);
}

Simulator::~Simulator() = default;

void
Simulator::noteWarm(double seconds, std::uint64_t insts,
                    const FunctionalCore &warm)
{
    warmSecondsStat_.set(seconds);
    if (seconds > 0.0)
        warmIpsStat_.set(static_cast<double>(insts) / seconds);
    if (const BbCache *bb = warm.blockCache()) {
        bbBlocksStat_.set(static_cast<double>(bb->blocksDiscovered()));
        bbOpsStat_.set(static_cast<double>(bb->opsCached()));
        bbTraceHitsStat_.set(static_cast<double>(bb->traceHits()));
        bbSuccHitsStat_.set(static_cast<double>(bb->succHits()));
    }
}

std::uint64_t
Simulator::programChecksum()
{
    if (!programChecksum_)
        programChecksum_ = program_->checksum();
    return *programChecksum_;
}

FastForwardStats
Simulator::warmUp(bool &restored)
{
    restored = false;

    // Fast-forward cold; with `keep`, also capture the warm state there.
    auto coldFf = [&](WarmState *keep) -> FastForwardStats {
        FunctionalCore warm(*program_);
        const auto t0 = std::chrono::steady_clock::now();
        FastForwardStats ff =
            fastForwardUnseeded(warm, *core_, config.fastForward);
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        noteWarm(dt.count(), ff.instsSkipped, warm);
        if (shared_)
            shared_->noteWarmUp();
        if (ff.hitHalt) {
            warn("fast-forward of %llu insts consumed the whole program",
                 static_cast<unsigned long long>(config.fastForward));
        }
        if (keep)
            *keep = WarmState::capture(warm, *core_, ff, programChecksum());
        // Captured first, so the image moves into the core instead of
        // being copied.
        if (!ff.hitHalt) {
            core_->seedState(warm.regFile(), std::move(warm.memory()),
                             warm.pc());
        }
        return ff;
    };

    // One store: the given cache (a sweep's, shared in process), else
    // no reuse at all.
    const std::shared_ptr<CheckpointCache> &cache = config.ckptCache;
    if (!cache)
        return coldFf(nullptr);

    const std::uint64_t key = checkpointKeyHash(config);
    if (CheckpointCache::Entry warm = cache->findOrBegin(key)) {
        SCIQ_ASSERT(warm->programChecksum == programChecksum(),
                    "warm state of %s made from another program",
                    config.workload.c_str());
        warm->adopt(*core_);
        restored = true;
        return warm->ff;
    }

    // This run was elected producer for the key.
    try {
        WarmState fresh;
        FastForwardStats ff = coldFf(&fresh);
        cache->publish(key, std::move(fresh));
        return ff;
    } catch (...) {
        cache->cancel(key);
        throw;
    }
}

std::uint64_t
Simulator::prepare(bool &restored)
{
    restored = false;
    if (config.fastForward == 0)
        return 0;
    const FastForwardStats ff = warmUp(restored);
    if (ff.hitHalt) {
        // The warm-up consumed the program and left the core unseeded;
        // start it from the program image, as a core built with the
        // image would.
        SparseMemory image;
        program_->load(image);
        core_->seedState({}, std::move(image), program_->entry());
    }
    return ff.instsSkipped;
}

RunResult
Simulator::run()
{
    bool ckptRestored = false;
    const std::uint64_t skipped = prepare(ckptRestored);

    // Time only the cycle-accurate core loop: construction, fast-forward
    // and golden-model validation are excluded so the number tracks the
    // tick path the ROADMAP's throughput work targets.  The loop runs in
    // chunks so a deadline is polled off the hot path; OooCore::run
    // bounds cycles relative to its call, so the chunked run is
    // tick-for-tick identical to one unbroken call.
    const auto host_start = std::chrono::steady_clock::now();
    const bool timed = config.deadlineSec > 0.0;
    const auto deadline =
        host_start + std::chrono::duration<double>(config.deadlineSec);
    constexpr Cycle kChunk = 1u << 16;
    Cycle remaining = config.maxCycles;
    while (!core_->halted() && remaining > 0) {
        const Cycle step = std::min<Cycle>(kChunk, remaining);
        core_->run(~0ULL, step);
        remaining -= step;
        if (timed && !core_->halted() && remaining > 0 &&
            std::chrono::steady_clock::now() >= deadline) {
            std::ostringstream dump;
            core_->dumpPipelineState(dump);
            throw DeadlockError(
                "wall-clock deadline of " +
                    std::to_string(config.deadlineSec) +
                    "s exceeded at cycle " + std::to_string(core_->cycles()),
                dump.str(), /*wall_clock=*/true);
        }
    }
    const std::chrono::duration<double> host_elapsed =
        std::chrono::steady_clock::now() - host_start;

    return collect(host_elapsed.count(), skipped, ckptRestored);
}

RunResult
Simulator::collect(double host_seconds, std::uint64_t skipped,
                   bool restored)
{
    RunResult r;
    r.workload = config.workload;
    r.iqKind = iqKindName(config.core.iqKind);
    r.iqSize = config.core.iq.numEntries;
    r.chains = config.core.iqKind == IqKind::Segmented
                   ? config.core.iq.maxChains
                   : -1;
    r.cycles = core_->cycles();
    r.insts = core_->committedCount();
    r.ipc = core_->ipc();
    r.haltedCleanly = core_->halted();
    r.ckptRestored = restored;
    if (auditor_)
        r.auditViolations = auditor_->totalViolations();

    r.hostSeconds = host_seconds;
    if (r.hostSeconds > 0.0) {
        r.hostKcyclesPerSec = r.cycles / r.hostSeconds / 1e3;
        r.hostKinstsPerSec = r.insts / r.hostSeconds / 1e3;
    }

    r.warmSeconds = warmSecondsStat_.value();
    r.warmInstsPerSec = warmIpsStat_.value();
    r.bbBlocks = static_cast<std::uint64_t>(bbBlocksStat_.value());
    r.bbOpsCached = static_cast<std::uint64_t>(bbOpsStat_.value());
    r.bbTraceHits = static_cast<std::uint64_t>(bbTraceHitsStat_.value());
    r.bbSuccHits = static_cast<std::uint64_t>(bbSuccHitsStat_.value());

    // Misprediction rate per *committed* conditional branch (wrong-path
    // and post-squash refetch predictions would inflate the base).
    auto &bp = core_->branchPredictor();
    if (core_->committedCondBranches.value() > 0) {
        r.branchMispredictRate = bp.condMispredicts.value() /
                                 core_->committedCondBranches.value();
    }

    auto &hmp = core_->hitMissPredictor();
    r.hmpAccuracy = hmp.hitAccuracy();
    r.hmpCoverage = hmp.hitCoverage();

    auto &lrp = core_->leftRightPredictor();
    if (lrp.predicts.value() > 0)
        r.lrpMispredictRate = lrp.mispredicts.value() / lrp.predicts.value();

    auto &l1d = core_->memHierarchy().dcache();
    const double accesses = l1d.accesses.value();
    if (accesses > 0) {
        r.l1dMissRate =
            (l1d.misses.value() + l1d.delayedHits.value()) / accesses;
        const double all_misses = l1d.misses.value() +
                                  l1d.delayedHits.value();
        if (all_misses > 0)
            r.l1dDelayedHitFrac = l1d.delayedHits.value() / all_misses;
    }

    r.iqOccupancyAvg = core_->iqUnit().occupancyAvg.value();

    if (auto *seg = dynamic_cast<SegmentedIq *>(&core_->iqUnit())) {
        r.avgChains = seg->chainsInUseAvg.value();
        r.peakChains = seg->chainsPeak();
        r.seg0ReadyAvg = seg->seg0Ready.value();
        r.seg0OccupancyAvg = seg->seg0Occupancy.value();
        if (r.cycles > 0) {
            r.deadlockCycleFrac =
                seg->deadlockCycles.value() / static_cast<double>(r.cycles);
        }
        if (seg->instsInserted.value() > 0) {
            r.twoOutstandingFrac =
                seg->twoOutstanding.value() / seg->instsInserted.value();
        }
        if (seg->chainsCreated.value() > 0) {
            r.headsFromLoadsFrac =
                seg->headsFromLoads.value() / seg->chainsCreated.value();
        }
        r.segActiveAvg = seg->activeSegmentsAvg.value();
        r.segCyclesActive = seg->segmentCyclesActive.value();
        const auto &work = seg->workCounters();
        r.iqSignalDeliveries = work.signalDeliveries;
        r.iqPlanCalls = work.planCalls;
        r.iqSegmentsScanned = work.segmentsScanned;
        r.iqLaneWordsTouched = work.laneWordsTouched;
    }

    if (config.validate) {
        // The golden end state comes from the functional model run from
        // the program image for the skipped prefix plus exactly as many
        // instructions as the pipeline committed — never from a warm-up,
        // so validation stays independent of the warm path.  A sweep
        // runs it once per (program, instruction count) and shares it
        // among its jobs.
        const std::uint64_t insts = skipped + r.insts;
        const std::shared_ptr<const GoldenState> golden =
            shared_ ? shared_->golden(*programChecksum_, *program_, insts)
                    : std::make_shared<const GoldenState>(
                          GoldenState::run(*program_, insts));
        r.validated = golden->matches(*core_);
        if (!r.validated) {
            warn("validation FAILED for %s on %s IQ",
                 config.workload.c_str(), r.iqKind.c_str());
        }
    }

    return r;
}

RunResult
runSim(const SimConfig &config, SweepShared *shared)
{
    Simulator sim(config, shared);
    return sim.run();
}

void
printResultHeader(std::ostream &os)
{
    os << std::left << std::setw(10) << "workload" << std::setw(14)
       << "iq" << std::setw(8) << "size" << std::setw(8) << "chains"
       << std::setw(12) << "cycles" << std::setw(10) << "insts"
       << std::setw(8) << "ipc" << std::setw(6) << "ok" << '\n';
    os << std::string(76, '-') << '\n';
}

void
printResultRow(std::ostream &os, const RunResult &r)
{
    os << std::left << std::setw(10) << r.workload << std::setw(14)
       << r.iqKind << std::setw(8) << r.iqSize << std::setw(8)
       << (r.chains < 0 ? std::string("inf") : std::to_string(r.chains))
       << std::setw(12) << r.cycles << std::setw(10) << r.insts
       << std::setw(8) << std::fixed << std::setprecision(3) << r.ipc
       << std::setw(6) << (r.validated ? "yes" : "NO") << '\n';
}

} // namespace sciq
