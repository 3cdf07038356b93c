#include "checkpoint.hh"

#include <utility>

#include "common/serialize.hh"

namespace sciq {

namespace {

constexpr char kMagic[9] = "SCIQCKPT";  // 8 payload bytes

void
hashCacheGeometry(serial::Fnv64 &h, const CacheParams &p)
{
    h.update(p.sizeBytes);
    h.update(p.assoc);
    h.update(p.lineBytes);
}

/** Trailer = serial::hashBytes over every byte before it. */
std::uint64_t
blobTrailer(const std::string &blob, std::size_t payload_len)
{
    return serial::hashBytes(blob.data(), payload_len);
}

void
saveFfStats(serial::Writer &w, const FastForwardStats &ff)
{
    w.u64(ff.instsSkipped);
    w.u64(ff.memAccessesWarmed);
    w.u64(ff.branchesWarmed);
    w.u8(ff.hitHalt ? 1 : 0);
}

FastForwardStats
restoreFfStats(serial::Reader &r)
{
    FastForwardStats ff;
    ff.instsSkipped = r.u64();
    ff.memAccessesWarmed = r.u64();
    ff.branchesWarmed = r.u64();
    ff.hitHalt = r.u8() != 0;
    return ff;
}

} // namespace

std::uint64_t
checkpointKeyHash(const SimConfig &config)
{
    serial::Fnv64 h;
    h.update(kCheckpointVersion);
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

std::string
saveCheckpoint(const SimConfig &config, const FunctionalCore &golden,
               OooCore &core, const FastForwardStats &ff)
{
    // One allocation for the whole blob: the memory image plus room
    // for the tables (0.45 MiB at the default geometries; a larger
    // configuration costs one regrowth).
    constexpr std::size_t kTableRoom = 1 << 20;
    serial::Writer w;
    w.reserve(golden.memory().numPages() * SparseMemory::kSavedPageBytes +
              kTableRoom);
    w.bytes(kMagic, 8);
    w.u32(kCheckpointVersion);
    w.u64(checkpointKeyHash(config));
    w.str(config.workload);
    w.u64(config.wl.iterations);
    w.u64(config.wl.seed);
    w.f64(config.wl.scale);
    w.u64(config.fastForward);
    w.u64(golden.prog().checksum());

    w.tag("FFST");
    saveFfStats(w, ff);
    w.tag("FUNC");
    golden.save(w);
    w.tag("L1I_");
    core.memHierarchy().icache().save(w);
    w.tag("L1D_");
    core.memHierarchy().dcache().save(w);
    w.tag("L2__");
    core.memHierarchy().l2cache().save(w);
    w.tag("BPRD");
    core.branchPredictor().save(w);
    w.tag("BTB_");
    core.btb().save(w);
    w.tag("RAS_");
    core.returnAddressStack().save(w);
    w.tag("HMP_");
    core.hitMissPredictor().save(w);
    w.tag("LRP_");
    core.leftRightPredictor().save(w);
    w.tag("END_");

    std::string blob = w.take();
    const std::uint64_t trailer = blobTrailer(blob, blob.size());
    serial::Writer t;
    t.u64(trailer);
    blob += t.buffer();
    return blob;
}

FastForwardStats
restoreCheckpoint(const std::string &blob, const SimConfig &config,
                  const Program &program, OooCore &core)
{
    return restoreCheckpoint(blob, config, program.checksum(), core);
}

FastForwardStats
restoreCheckpoint(const std::string &blob, const SimConfig &config,
                  std::uint64_t program_checksum, OooCore &core)
{
    // Size, magic, format version and trailer checksum, in that order,
    // before any section payload is trusted.
    if (blob.size() < 8 + 4 + 8 + 8) {
        throw CheckpointError("checkpoint truncated: " +
                                  std::to_string(blob.size()) +
                                  " bytes is smaller than any valid header");
    }
    if (blob.compare(0, 8, kMagic, 8) != 0)
        throw CheckpointError("not a checkpoint (bad magic)");

    serial::Reader vr(std::string_view(blob).substr(8, 4));
    const std::uint32_t version = vr.u32();
    if (version != kCheckpointVersion) {
        throw CheckpointError(
            "unsupported checkpoint version " + std::to_string(version) +
            " (this build reads version " +
            std::to_string(kCheckpointVersion) + ")");
    }

    const std::size_t payload_len = blob.size() - 8;
    serial::Reader tr(std::string_view(blob).substr(payload_len));
    if (tr.u64() != blobTrailer(blob, payload_len))
        throw CheckpointError("checkpoint checksum mismatch (corrupted blob)");

    try {
        serial::Reader r(blob);
        r.span(8 + 4);  // magic and version, checked above

        const std::uint64_t key = r.u64();
        const std::string wl_name = r.str();
        const std::uint64_t wl_iters = r.u64();
        const std::uint64_t wl_seed = r.u64();
        r.f64();  // wl scale, covered by the key hash
        const std::uint64_t ff_insts = r.u64();
        if (key != checkpointKeyHash(config)) {
            throw CheckpointError(
                "checkpoint key mismatch: snapshot is of '" + wl_name +
                "' (iters=" + std::to_string(wl_iters) + ", seed=" +
                std::to_string(wl_seed) + ", ff=" +
                std::to_string(ff_insts) +
                ") under a different workload/memory/branch configuration");
        }
        if (r.u64() != program_checksum) {
            throw CheckpointError(
                "checkpoint program checksum mismatch: the workload "
                "generator produced a different program than the snapshot "
                "was taken from");
        }

        r.expectTag("FFST");
        const FastForwardStats ff = restoreFfStats(r);

        r.expectTag("FUNC");
        FunctionalCore::SavedState warm = FunctionalCore::decode(r);

        r.expectTag("L1I_");
        core.memHierarchy().icache().restore(r);
        r.expectTag("L1D_");
        core.memHierarchy().dcache().restore(r);
        r.expectTag("L2__");
        core.memHierarchy().l2cache().restore(r);
        r.expectTag("BPRD");
        core.branchPredictor().restore(r);
        r.expectTag("BTB_");
        core.btb().restore(r);
        r.expectTag("RAS_");
        core.returnAddressStack().restore(r);
        r.expectTag("HMP_");
        core.hitMissPredictor().restore(r);
        r.expectTag("LRP_");
        core.leftRightPredictor().restore(r);
        r.expectTag("END_");
        if (r.remaining() != 8) {
            throw CheckpointError("checkpoint has " +
                                  std::to_string(r.remaining() - 8) +
                                  " trailing bytes after END_");
        }

        // Mirror the cold path exactly: fastForward() only seeds the
        // timing core when the warm-up did not consume the program.
        if (!ff.hitHalt)
            core.seedState(warm.regs, std::move(warm.memory), warm.pc);
        return ff;
    } catch (const serial::Error &e) {
        throw CheckpointError(std::string("malformed checkpoint: ") +
                              e.what());
    }
}

CheckpointCache::Blob
CheckpointCache::findOrBegin(std::uint64_t key)
{
    Blob hit = blobs_.findOrBegin(key);
    if (hit)
        ++memoryHits_;
    return hit;
}

CheckpointCache::Blob
CheckpointCache::publish(std::uint64_t key, std::string blob)
{
    ++produced_;
    return blobs_.publish(
        key, std::make_shared<const std::string>(std::move(blob)));
}

void
CheckpointCache::cancel(std::uint64_t key)
{
    blobs_.cancel(key);
}

} // namespace sciq
