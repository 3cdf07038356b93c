#include "cache.hh"

#include <algorithm>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace sciq {

Cache::Cache(const CacheParams &params, MemLevel &below_, EventQueue &ev)
    : params_(params), below(below_), events(ev), statsGroup(params.name)
{
    SCIQ_ASSERT(isPowerOf2(params_.lineBytes), "line size must be pow2");
    SCIQ_ASSERT(params_.sizeBytes % (params_.lineBytes * params_.assoc) == 0,
                "cache size not divisible by line*assoc");
    numSets = params_.sizeBytes / (params_.lineBytes * params_.assoc);
    SCIQ_ASSERT(isPowerOf2(numSets), "set count must be a power of two");
    lineShift = floorLog2(params_.lineBytes);
    lines.assign(numSets * params_.assoc, Line{});
    warmMemoClear();

    mshrFile.resize(params_.mshrs);
    for (std::uint32_t slot = params_.mshrs; slot-- > 0;)
        freeMshrs.push_back(slot);
    std::size_t index_size = 8;
    while (index_size < 4 * static_cast<std::size_t>(params_.mshrs))
        index_size *= 2;
    mshrIndex.assign(index_size, 0);
    mshrIndexShift = 64 - floorLog2(index_size);

    statsGroup.addScalar("accesses", &accesses, "CPU-side accesses");
    statsGroup.addScalar("hits", &hits, "accesses that hit");
    statsGroup.addScalar("misses", &misses, "primary misses");
    statsGroup.addScalar("delayed_hits", &delayedHits,
                         "accesses merged into an in-flight miss");
    statsGroup.addScalar("writebacks", &writebacks,
                         "dirty lines written back");
    statsGroup.addScalar("mshr_full_stalls", &mshrFullStalls,
                         "cycles a miss waited for a free MSHR");
}

Cache::Line *
Cache::lookup(Addr line_addr)
{
    std::size_t set = setIndex(line_addr);
    for (unsigned w = 0; w < params_.assoc; ++w) {
        Line &line = lines[set * params_.assoc + w];
        if (line.valid && line.tag == line_addr)
            return &line;
    }
    return nullptr;
}

bool
Cache::isResident(Addr addr) const
{
    Addr la = lineAddrOf(addr);
    std::size_t set = setIndex(la);
    for (unsigned w = 0; w < params_.assoc; ++w) {
        const Line &line = lines[set * params_.assoc + w];
        if (line.valid && line.tag == la)
            return true;
    }
    return false;
}

void
Cache::warmInsert(Addr addr)
{
    const Addr la = lineAddrOf(addr);
    if (warmMemoHas(la))
        return;  // proven resident; a repeat insert is a no-op
    (void)warmTouch(la);
}

bool
Cache::warmAccess(Addr addr)
{
    const Addr la = lineAddrOf(addr);
    if (warmMemoHas(la))
        return true;  // proven resident since the last install
    return warmTouch(la);
}

bool
Cache::warmTouch(Addr la)
{
    // One pass over the set computes residency AND the would-be victim
    // (first invalid way, else the first least-recently-used way —
    // installLine's exact selection order), so a warm miss costs one
    // scan instead of lookup() + installLine()'s two.
    const std::size_t set = setIndex(la);
    Line *firstInvalid = nullptr;
    Line *lru = nullptr;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        Line &line = lines[set * params_.assoc + w];
        if (!line.valid) {
            if (!firstInvalid)
                firstInvalid = &line;
            continue;
        }
        if (line.tag == la) {
            warmMemoAdd(la);
            return true;
        }
        if (!lru || line.lastUse < lru->lastUse)
            lru = &line;
    }

    Line *victim = firstInvalid ? firstInvalid : lru;
    if (victim->valid && victim->dirty) {
        writebacks.inc();
        below.request(victim->tag, true, 0, MemReply{});
    }
    warmMemoClear();  // the eviction may remove a memoized line
    victim->valid = true;
    victim->tag = la;
    victim->dirty = false;
    victim->lastUse = 0;
    warmMemoAdd(la);
    return false;
}

void
Cache::flush()
{
    for (auto &line : lines)
        line = Line{};
    warmMemoClear();
}

Cache::State
Cache::capture() const
{
    SCIQ_ASSERT(quiescent(), "cache '%s' has in-flight misses",
                params_.name.c_str());
    return {lines,
            nextFillFree,
            {accesses.value(), hits.value(), misses.value(),
             delayedHits.value(), writebacks.value(),
             mshrFullStalls.value()}};
}

void
Cache::adopt(const State &s)
{
    SCIQ_ASSERT(quiescent(), "cache '%s' has in-flight misses",
                params_.name.c_str());
    SCIQ_ASSERT(s.lines.size() == lines.size(),
                "cache '%s': warm state of %zu lines, configured %zu",
                params_.name.c_str(), s.lines.size(), lines.size());
    lines = s.lines;
    warmMemoClear();
    nextFillFree = s.nextFillFree;
    accesses.set(s.counters[0]);
    hits.set(s.counters[1]);
    misses.set(s.counters[2]);
    delayedHits.set(s.counters[3]);
    writebacks.set(s.counters[4]);
    mshrFullStalls.set(s.counters[5]);
}

void
Cache::access(Addr addr, bool is_write, Cycle now, MemReply reply,
              bool notify_miss)
{
    accesses.inc();
    startLookup({lineAddrOf(addr), reply, is_write, true, notify_miss}, now);
}

void
Cache::request(Addr line_addr, bool is_write, Cycle now, MemReply reply)
{
    startLookup({line_addr, reply, is_write, false, false}, now);
}

void
Cache::startLookup(const Lookup &lk, Cycle now)
{
    if (freeLookups.empty()) {
        freeLookups.push_back(static_cast<std::uint32_t>(lookups.size()));
        lookups.emplace_back();
    }
    const std::uint32_t idx = freeLookups.back();
    freeLookups.pop_back();
    lookups[idx] = lk;
    events.schedule(now + params_.latency, this, kLookupDone, idx);
}

void
Cache::handleEvent(Cycle when, unsigned kind, std::uint64_t arg)
{
    const auto idx = static_cast<std::uint32_t>(arg);
    switch (kind) {
      case kLookupDone:
        finishLookup(idx, when);
        break;
      case kRetry:
        retryBatch(idx);
        break;
      default:
        SCIQ_ASSERT(kind == kLineArrived, "cache event kind %u", kind);
        handleFill(idx, when);
        break;
    }
}

void
Cache::finishLookup(std::uint32_t idx, Cycle when)
{
    // Free the record first: a reply may start another access.
    const Lookup lk = lookups[idx];
    freeLookups.push_back(idx);

    if (Line *line = lookup(lk.lineAddr)) {
        line->lastUse = when;
        if (lk.isWrite)
            line->dirty = true;
        if (lk.isAccess) {
            hits.inc();
            lk.reply.deliver(when, static_cast<unsigned>(AccessOutcome::Hit));
        } else {
            sourceUp(lk.reply, when);
        }
        return;
    }

    unsigned kind = kLineArrived;
    if (lk.isAccess) {
        // The lookup has determined this is a miss; tell the IQ so it
        // can suspend the load's chain (paper section 3.4).
        if (lk.notifyMiss)
            lk.reply.deliver(when, kMissNotify);
        const bool merged = findMshr(lk.lineAddr) != kNoMshr;
        if (merged)
            delayedHits.inc();
        else
            misses.inc();
        kind = static_cast<unsigned>(merged ? AccessOutcome::DelayedHit
                                            : AccessOutcome::Miss);
    }
    startMiss(lk.lineAddr, lk.isWrite, when, Waiter{lk.reply, kind});
}

void
Cache::sourceUp(MemReply reply, Cycle ready)
{
    const Cycle start = std::max(ready, nextFillFree);
    const Cycle finish = start + params_.fillBandwidth;
    nextFillFree = finish;
    events.schedule(finish, reply.sink, kLineArrived, reply.tag);
}

std::uint32_t
Cache::findMshr(Addr line_addr) const
{
    const std::size_t mask = mshrIndex.size() - 1;
    for (std::size_t i = mshrHome(line_addr);; i = (i + 1) & mask) {
        const std::uint32_t e = mshrIndex[i];
        if (e == 0)
            return kNoMshr;
        if (mshrFile[e - 1].lineAddr == line_addr)
            return e - 1;
    }
}

void
Cache::startMiss(Addr line_addr, bool is_write, Cycle now, Waiter w)
{
    if (const std::uint32_t slot = findMshr(line_addr); slot != kNoMshr) {
        mshrFile[slot].anyWrite |= is_write;
        mshrFile[slot].waiters.push_back(w);
        return;
    }

    if (freeMshrs.empty()) {
        // All MSHRs busy: retry next cycle.
        mshrFullStalls.inc();
        batchFor(now + 1).misses.push_back({line_addr, is_write, w});
        ++parkedCount;
        return;
    }

    ++mshrEpoch;
    const std::uint32_t slot = freeMshrs.back();
    freeMshrs.pop_back();
    const std::size_t mask = mshrIndex.size() - 1;
    std::size_t i = mshrHome(line_addr);
    while (mshrIndex[i] != 0)
        i = (i + 1) & mask;
    mshrIndex[i] = slot + 1;
    Mshr &mshr = mshrFile[slot];
    mshr.lineAddr = line_addr;
    mshr.anyWrite = is_write;
    mshr.waiters.push_back(w);

    below.request(line_addr, false, now, MemReply{this, slot});
}

void
Cache::releaseMshr(std::uint32_t slot)
{
    const std::size_t mask = mshrIndex.size() - 1;
    std::size_t hole = mshrHome(mshrFile[slot].lineAddr);
    while (mshrIndex[hole] != slot + 1)
        hole = (hole + 1) & mask;
    // Backward-shift deletion: pull each later member of the probe run
    // into the hole unless its home lies cyclically after the hole.
    for (std::size_t j = (hole + 1) & mask; mshrIndex[j] != 0;
         j = (j + 1) & mask) {
        const std::size_t home =
            mshrHome(mshrFile[mshrIndex[j] - 1].lineAddr);
        if (((j - home) & mask) >= ((j - hole) & mask)) {
            mshrIndex[hole] = mshrIndex[j];
            hole = j;
        }
    }
    mshrIndex[hole] = 0;
    freeMshrs.push_back(slot);
}

Cache::RetryBatch &
Cache::batchFor(Cycle when)
{
    // Joining the open batch is equivalent to scheduling a retry event
    // of our own only while nothing else has been scheduled for `when`
    // since the batch's event.
    if (openBatch != kNoBatch && events.isLastScheduledFor(when, openTicket))
        return batches[openBatch];

    if (freeBatches.empty()) {
        freeBatches.push_back(static_cast<std::uint32_t>(batches.size()));
        batches.emplace_back();
    }
    openBatch = freeBatches.back();
    freeBatches.pop_back();
    openTicket = events.schedule(when, this, kRetry, openBatch);
    batches[openBatch].openEpoch = mshrEpoch;
    return batches[openBatch];
}

void
Cache::retryBatch(std::uint32_t slot)
{
    const Cycle now = events.curCycle();
    if (openBatch == slot)
        openBatch = kNoBatch;
    std::vector<ParkedMiss> misses = std::move(batches[slot].misses);

    if (batches[slot].openEpoch == mshrEpoch) {
        // No MSHR was allocated or freed since every member found the
        // file full and its line absent, and none can be while they
        // retry, so each fails again exactly as its own retry would:
        // count the stalls and move them, in order, to next cycle.
        if (auditWaiters) {
            for (const ParkedMiss &m : misses) {
                ++waitChecks;
                if (!freeMshrs.empty() || findMshr(m.lineAddr) != kNoMshr)
                    ++waitMismatches;
            }
        }
        mshrFullStalls.inc(static_cast<double>(misses.size()));
        RetryBatch &next = batchFor(now + 1);
        if (next.misses.empty()) {
            next.misses.swap(misses);
        } else {
            next.misses.insert(next.misses.end(), misses.begin(),
                               misses.end());
        }
    } else {
        parkedCount -= misses.size();
        for (ParkedMiss &m : misses)
            startMiss(m.lineAddr, m.isWrite, now, m.waiter);
    }

    // Hand the emptied storage back so the slot's next use reuses it.
    misses.clear();
    batches[slot].misses = std::move(misses);
    freeBatches.push_back(slot);
}

void
Cache::handleFill(std::uint32_t slot, Cycle when)
{
    // Take the waiters out and free the MSHR before waking them, as a
    // woken request may start a miss that reuses the slot.  The slot
    // keeps the scratch vector's storage, so no vector is allocated.
    std::vector<Waiter> waiters;
    waiters.swap(fillWaiters);
    waiters.swap(mshrFile[slot].waiters);
    const Addr line_addr = mshrFile[slot].lineAddr;
    const bool dirty = mshrFile[slot].anyWrite;
    releaseMshr(slot);
    ++mshrEpoch;

    installLine(line_addr, dirty, when);
    for (const Waiter &w : waiters) {
        if (w.kind == kLineArrived)
            sourceUp(w.reply, when);  // fill arrived here; forward upward
        else
            w.reply.deliver(when, w.kind);
    }
    waiters.clear();
    fillWaiters.swap(waiters);
}

void
Cache::installLine(Addr line_addr, bool dirty, Cycle now)
{
    // The install may evict the memoized warm line; re-proven by the
    // next warmAccess/warmInsert.
    warmMemoClear();
    std::size_t set = setIndex(line_addr);
    Line *victim = nullptr;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        Line &line = lines[set * params_.assoc + w];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (!victim || line.lastUse < victim->lastUse)
            victim = &line;
    }

    if (victim->valid && victim->dirty) {
        writebacks.inc();
        below.request(victim->tag, true, now, MemReply{});
    }

    victim->valid = true;
    victim->tag = line_addr;
    victim->dirty = dirty;
    victim->lastUse = now;
}

} // namespace sciq
