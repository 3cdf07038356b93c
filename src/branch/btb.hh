/**
 * @file
 * Branch target buffer: 4K entries, 4-way set associative (Table 1).
 * In this simulator direct targets are computable at fetch, so the BTB
 * primarily serves indirect jumps (JR/JALR); it is modelled in full so
 * the misprediction behaviour of indirect-heavy codes is realistic.
 */

#ifndef SCIQ_BRANCH_BTB_HH
#define SCIQ_BRANCH_BTB_HH

#include <cstdint>
#include <vector>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace sciq {

class Btb
{
  public:
    explicit Btb(unsigned entries = 4096, unsigned assoc = 4)
        : numSets(entries / assoc), ways(assoc), statsGroup("btb"),
          table(entries)
    {
        SCIQ_ASSERT(isPowerOf2(numSets), "BTB set count must be pow2");
        statsGroup.addScalar("lookups", &lookups, "BTB lookups");
        statsGroup.addScalar("hits", &hits, "BTB hits");
    }

    /** @return true and fill `target` on a hit. */
    bool
    lookup(Addr pc, Addr &target)
    {
        lookups.inc();
        Entry *e = find(pc);
        if (!e)
            return false;
        hits.inc();
        e->lastUse = ++useClock;
        target = e->target;
        return true;
    }

    /** Install/refresh a mapping (at commit of a taken control inst). */
    void
    update(Addr pc, Addr target)
    {
        if (Entry *e = find(pc)) {
            e->target = target;
            e->lastUse = ++useClock;
            return;
        }
        const std::size_t set = setIndex(pc);
        Entry *victim = nullptr;
        for (unsigned w = 0; w < ways; ++w) {
            Entry &cand = table[set * ways + w];
            if (!cand.valid) {
                victim = &cand;
                break;
            }
            if (!victim || cand.lastUse < victim->lastUse)
                victim = &cand;
        }
        victim->valid = true;
        victim->pc = pc;
        victim->target = target;
        victim->lastUse = ++useClock;
    }

    /** Serialize the table, LRU clock and statistics counters. */
    void
    save(serial::Writer &w) const
    {
        w.u64(table.size());
        char *p = w.span(table.size(), kSavedEntryBytes);
        for (const Entry &e : table) {
            p[0] = e.valid ? 1 : 0;
            serial::storeLe<std::uint64_t>(p + 1, e.pc);
            serial::storeLe<std::uint64_t>(p + 9, e.target);
            serial::storeLe<std::uint64_t>(p + 17, e.lastUse);
            p += kSavedEntryBytes;
        }
        w.u64(useClock);
        w.f64(lookups.value());
        w.f64(hits.value());
    }

    /** Restore a snapshot; the entry count must match (serial::Error). */
    void
    restore(serial::Reader &r)
    {
        r.expectCount(table.size(), "BTB size");
        const char *p = r.span(table.size(), kSavedEntryBytes);
        for (Entry &e : table) {
            e.valid = p[0] != 0;
            e.pc = serial::loadLe<std::uint64_t>(p + 1);
            e.target = serial::loadLe<std::uint64_t>(p + 9);
            e.lastUse = serial::loadLe<std::uint64_t>(p + 17);
            p += kSavedEntryBytes;
        }
        useClock = r.u64();
        lookups.set(r.f64());
        hits.set(r.f64());
    }

    stats::Group &statGroup() { return statsGroup; }

    stats::Scalar lookups;
    stats::Scalar hits;

  private:
    struct Entry
    {
        bool valid = false;
        Addr pc = 0;
        Addr target = 0;
        std::uint64_t lastUse = 0;
    };

    /** Saved entry record: u8 valid, u64 pc, u64 target, u64 lastUse. */
    static constexpr std::size_t kSavedEntryBytes = 25;

    std::size_t setIndex(Addr pc) const
    {
        return (pc >> 2) & (numSets - 1);
    }

    Entry *
    find(Addr pc)
    {
        const std::size_t set = setIndex(pc);
        for (unsigned w = 0; w < ways; ++w) {
            Entry &e = table[set * ways + w];
            if (e.valid && e.pc == pc)
                return &e;
        }
        return nullptr;
    }

    std::size_t numSets;
    unsigned ways;
    stats::Group statsGroup;
    std::vector<Entry> table;
    std::uint64_t useClock = 0;
};

} // namespace sciq

#endif // SCIQ_BRANCH_BTB_HH
