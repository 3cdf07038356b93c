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
        below.request(victim->tag, true, 0, [](Cycle) {});
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

void
Cache::save(serial::Writer &w) const
{
    if (!mshrFile.empty() || parkedCount != 0) {
        throw serial::Error("cache '" + params_.name +
                            "' has in-flight misses; checkpoints must be "
                            "taken while the hierarchy is quiescent");
    }
    w.u64(numSets);
    w.u32(params_.assoc);
    w.u32(params_.lineBytes);
    char *p = w.span(lines.size(), kSavedLineBytes);
    for (const Line &line : lines) {
        serial::storeLe<std::uint64_t>(p, line.tag);
        p[8] = static_cast<char>((line.valid ? 1 : 0) | (line.dirty ? 2 : 0));
        serial::storeLe<std::uint64_t>(p + 9, line.lastUse);
        p += kSavedLineBytes;
    }
    w.u64(nextFillFree);
    w.f64(accesses.value());
    w.f64(hits.value());
    w.f64(misses.value());
    w.f64(delayedHits.value());
    w.f64(writebacks.value());
    w.f64(mshrFullStalls.value());
}

void
Cache::restore(serial::Reader &r)
{
    if (!mshrFile.empty() || parkedCount != 0) {
        throw serial::Error("cache '" + params_.name +
                            "' has in-flight misses; cannot restore");
    }
    const std::uint64_t sets = r.u64();
    const std::uint32_t assoc = r.u32();
    const std::uint32_t line_bytes = r.u32();
    if (sets != numSets || assoc != params_.assoc ||
        line_bytes != params_.lineBytes) {
        throw serial::Error(
            "cache '" + params_.name + "' geometry mismatch: snapshot " +
            std::to_string(sets) + "x" + std::to_string(assoc) + "x" +
            std::to_string(line_bytes) + ", configured " +
            std::to_string(numSets) + "x" + std::to_string(params_.assoc) +
            "x" + std::to_string(params_.lineBytes));
    }
    const char *p = r.span(lines.size(), kSavedLineBytes);
    for (Line &line : lines) {
        line.tag = serial::loadLe<std::uint64_t>(p);
        line.valid = (p[8] & 1) != 0;
        line.dirty = (p[8] & 2) != 0;
        line.lastUse = serial::loadLe<std::uint64_t>(p + 9);
        p += kSavedLineBytes;
    }
    warmMemoClear();
    nextFillFree = r.u64();
    accesses.set(r.f64());
    hits.set(r.f64());
    misses.set(r.f64());
    delayedHits.set(r.f64());
    writebacks.set(r.f64());
    mshrFullStalls.set(r.f64());
}

void
Cache::access(Addr addr, bool is_write, Cycle now, AccessDone done,
              MissNotify on_miss)
{
    accesses.inc();
    const Addr la = lineAddrOf(addr);
    const Cycle lookup_cycle = now + params_.latency;

    events.schedule(lookup_cycle, [this, la, is_write, lookup_cycle,
                                   done = std::move(done),
                                   on_miss = std::move(on_miss)]() mutable {
        if (Line *line = lookup(la)) {
            hits.inc();
            line->lastUse = lookup_cycle;
            if (is_write)
                line->dirty = true;
            done(lookup_cycle, AccessOutcome::Hit);
            return;
        }

        // The lookup has determined this is a miss; tell the IQ so it
        // can suspend the load's chain (paper section 3.4).
        if (on_miss)
            on_miss(lookup_cycle);

        const bool merged = mshrFile.count(la) > 0;
        if (merged)
            delayedHits.inc();
        else
            misses.inc();

        AccessOutcome outcome =
            merged ? AccessOutcome::DelayedHit : AccessOutcome::Miss;
        startMiss(la, is_write, lookup_cycle,
                  [done = std::move(done), outcome](Cycle when) {
                      done(when, outcome);
                  });
    });
}

void
Cache::request(Addr line_addr, bool is_write, Cycle now,
               std::function<void(Cycle)> done)
{
    const Cycle lookup_cycle = now + params_.latency;
    events.schedule(lookup_cycle, [this, line_addr, is_write, lookup_cycle,
                                   done = std::move(done)]() mutable {
        if (Line *line = lookup(line_addr)) {
            line->lastUse = lookup_cycle;
            if (is_write)
                line->dirty = true;
            // Source the line upward subject to fill bandwidth.
            Cycle start = std::max(lookup_cycle, nextFillFree);
            Cycle finish = start + params_.fillBandwidth;
            nextFillFree = finish;
            events.schedule(finish,
                            [done = std::move(done), finish]() mutable {
                                done(finish);
                            });
            return;
        }
        startMiss(line_addr, is_write, lookup_cycle,
                  [this, done = std::move(done)](Cycle when) mutable {
                      // Fill arrived here; forward upward with bandwidth.
                      Cycle start = std::max(when, nextFillFree);
                      Cycle finish = start + params_.fillBandwidth;
                      nextFillFree = finish;
                      events.schedule(
                          finish, [done = std::move(done), finish]() mutable {
                              done(finish);
                          });
                  });
    });
}

void
Cache::startMiss(Addr line_addr, bool is_write, Cycle now,
                 std::function<void(Cycle)> cb)
{
    if (auto it = mshrFile.find(line_addr); it != mshrFile.end()) {
        it->second.anyWrite |= is_write;
        it->second.lineWaiters.push_back(std::move(cb));
        return;
    }

    if (mshrFile.size() >= params_.mshrs) {
        // All MSHRs busy: retry next cycle.
        mshrFullStalls.inc();
        batchFor(now + 1).misses.push_back(
            {line_addr, is_write, std::move(cb)});
        ++parkedCount;
        return;
    }

    ++mshrEpoch;
    Mshr &mshr = mshrFile[line_addr];
    mshr.lineAddr = line_addr;
    mshr.anyWrite = is_write;
    mshr.lineWaiters.push_back(std::move(cb));

    below.request(line_addr, false, now, [this, line_addr](Cycle when) {
        handleFill(line_addr, when);
    });
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
    openTicket = events.schedule(
        when, [this, slot = openBatch] { retryBatch(slot); });
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
                if (mshrFile.size() < params_.mshrs ||
                    mshrFile.count(m.lineAddr) > 0)
                    ++waitMismatches;
            }
        }
        mshrFullStalls.inc(static_cast<double>(misses.size()));
        RetryBatch &next = batchFor(now + 1);
        if (next.misses.empty()) {
            next.misses.swap(misses);
        } else {
            for (ParkedMiss &m : misses)
                next.misses.push_back(std::move(m));
        }
    } else {
        parkedCount -= misses.size();
        for (ParkedMiss &m : misses)
            startMiss(m.lineAddr, m.isWrite, now, std::move(m.cb));
    }

    // Hand the emptied storage back so the slot's next use reuses it.
    misses.clear();
    batches[slot].misses = std::move(misses);
    freeBatches.push_back(slot);
}

void
Cache::handleFill(Addr line_addr, Cycle when)
{
    auto it = mshrFile.find(line_addr);
    SCIQ_ASSERT(it != mshrFile.end(), "fill without MSHR for %#llx",
                static_cast<unsigned long long>(line_addr));

    // Move waiters out before erasing; callbacks may start new misses.
    auto waiters = std::move(it->second.lineWaiters);
    bool dirty = it->second.anyWrite;
    mshrFile.erase(it);
    ++mshrEpoch;

    installLine(line_addr, dirty, when);
    for (auto &w : waiters)
        w(when);
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
        below.request(victim->tag, true, now, [](Cycle) {});
    }

    victim->valid = true;
    victim->tag = line_addr;
    victim->dirty = dirty;
    victim->lastUse = now;
}

} // namespace sciq
