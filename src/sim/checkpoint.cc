#include "checkpoint.hh"

#include <utility>

#include "common/serialize.hh"

namespace sciq {

namespace {

void
hashCacheGeometry(serial::Fnv64 &h, const CacheParams &p)
{
    h.update(p.sizeBytes);
    h.update(p.assoc);
    h.update(p.lineBytes);
}

} // namespace

std::uint64_t
checkpointKeyHash(const SimConfig &config)
{
    serial::Fnv64 h;
    h.update(workloadFingerprint(config.workload, config.wl));
    h.update(config.fastForward);
    hashCacheGeometry(h, config.core.mem.l1i);
    hashCacheGeometry(h, config.core.mem.l1d);
    hashCacheGeometry(h, config.core.mem.l2);
    h.update(config.core.bp.globalHistoryBits);
    h.update(config.core.bp.globalPhtEntries);
    h.update(config.core.bp.localHistoryRegs);
    h.update(config.core.bp.localHistoryBits);
    h.update(config.core.bp.localPhtEntries);
    h.update(config.core.bp.choicePhtEntries);
    h.update(config.core.btbEntries);
    h.update(config.core.btbAssoc);
    h.update(config.core.rasEntries);
    h.update(config.core.hmpEntries);
    h.update(config.core.lrpEntries);
    return h.digest();
}

WarmState
WarmState::capture(const FunctionalCore &golden, OooCore &core,
                   const FastForwardStats &ff,
                   std::uint64_t program_checksum)
{
    MemHierarchy &mem = core.memHierarchy();
    return {ff,
            program_checksum,
            golden.capture(),
            mem.icache().capture(),
            mem.dcache().capture(),
            mem.l2cache().capture(),
            core.branchPredictor().capture(),
            core.btb().capture(),
            core.returnAddressStack().capture(),
            core.hitMissPredictor().capture(),
            core.leftRightPredictor().capture()};
}

void
WarmState::adopt(OooCore &core) const
{
    MemHierarchy &mem = core.memHierarchy();
    mem.icache().adopt(l1i);
    mem.dcache().adopt(l1d);
    mem.l2cache().adopt(l2);
    core.branchPredictor().adopt(bp);
    core.btb().adopt(btb);
    core.returnAddressStack().adopt(ras);
    core.hitMissPredictor().adopt(hmp);
    core.leftRightPredictor().adopt(lrp);
    // Mirror the cold path exactly: fastForward() only seeds the
    // timing core when the warm-up did not consume the program.
    if (!ff.hitHalt)
        core.seedState(func.regs, func.memory, func.pc);
}

CheckpointCache::Entry
CheckpointCache::findOrBegin(std::uint64_t key)
{
    Entry hit = states_.findOrBegin(key);
    if (hit)
        ++memoryHits_;
    return hit;
}

CheckpointCache::Entry
CheckpointCache::publish(std::uint64_t key, WarmState warm)
{
    ++produced_;
    return states_.publish(
        key, std::make_shared<const WarmState>(std::move(warm)));
}

void
CheckpointCache::cancel(std::uint64_t key)
{
    states_.cancel(key);
}

} // namespace sciq
