/**
 * @file
 * Branch target buffer: 4K entries, 4-way set associative (Table 1).
 * In this simulator direct targets are computable at fetch, so the BTB
 * primarily serves indirect jumps (JR/JALR); it is modelled in full so
 * the misprediction behaviour of indirect-heavy codes is realistic.
 */

#ifndef SCIQ_BRANCH_BTB_HH
#define SCIQ_BRANCH_BTB_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/intmath.hh"
#include "common/logging.hh"
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

    /** One way of a set. */
    struct Entry
    {
        bool valid = false;
        Addr pc = 0;
        Addr target = 0;
        std::uint64_t lastUse = 0;

        bool operator==(const Entry &) const = default;
    };

    /**
     * The warm state: the table, the LRU clock and the two statistics
     * counters (lookups, hits).
     */
    struct State
    {
        std::vector<Entry> table;
        std::uint64_t useClock = 0;
        std::array<double, 2> counters{};

        bool operator==(const State &) const = default;
    };

    State
    capture() const
    {
        return {table, useClock, {lookups.value(), hits.value()}};
    }

    /** Replace the warm state with `s`, of the same entry count. */
    void
    adopt(const State &s)
    {
        SCIQ_ASSERT(s.table.size() == table.size(),
                    "BTB warm state of %zu entries, configured %zu",
                    s.table.size(), table.size());
        table = s.table;
        useClock = s.useClock;
        lookups.set(s.counters[0]);
        hits.set(s.counters[1]);
    }

    stats::Group &statGroup() { return statsGroup; }

    stats::Scalar lookups;
    stats::Scalar hits;

  private:
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
