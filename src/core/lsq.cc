#include "lsq.hh"

#include <algorithm>
#include <ranges>

#include "common/logging.hh"

namespace sciq {

namespace {

/** Insert into an age-ordered list (usually at the tail). */
void
insertByAge(std::vector<DynInstPtr> &list, const DynInstPtr &inst)
{
    auto it = list.end();
    while (it != list.begin() && (*(it - 1))->seq > inst->seq)
        --it;
    list.insert(it, inst);
}

} // namespace

Lsq::Lsq(unsigned capacity, Cache &dcache_, FuPool &fu_,
         const Scoreboard &scoreboard_, Callbacks callbacks)
    : entries(capacity), dcache(dcache_), fu(fu_),
      scoreboard(scoreboard_), cb(std::move(callbacks)), statsGroup("lsq"),
      storeList(capacity)
{
    statsGroup.addScalar("loads_issued", &loadsIssued,
                         "loads sent to the data cache");
    statsGroup.addScalar("load_forwards", &loadForwards,
                         "loads satisfied by store-to-load forwarding");
    statsGroup.addScalar("load_conflict_stalls", &loadConflictStalls,
                         "load-cycles stalled on older stores");
    statsGroup.addScalar("store_drains", &storeDrains,
                         "committed stores written to the cache");
    statsGroup.addScalar("port_stalls", &portStalls,
                         "accesses delayed by cache-port contention");
}

void
Lsq::insert(const DynInstPtr &inst)
{
    SCIQ_ASSERT(!entries.full(), "LSQ overflow");
    inst->lsqCls = -1;
    inst->lsqBlockSeq = 0;
    entries.pushBack(inst);
    if (inst->isStore())
        storeList.pushBack(inst);
}

void
Lsq::setAddrReady(const DynInstPtr &inst, Cycle cycle)
{
    inst->addrReady = true;
    if (inst->isStore()) {
        // The store's address is now known: loads whose conservative
        // wait depended on it must re-classify.
        storeEvent(inst->seq);
        // Stores whose data is already available become commit-eligible
        // immediately; others wait on tick()'s data-ready list.
        RegIndex data_reg = inst->physSrc[1];
        if (scoreboard.isReady(data_reg))
            cb.onStoreReady(inst, cycle);
        if (!inst->completed)
            insertByAge(dataWaitStores, inst);
    } else {
        insertByAge(pendingLoads, inst);
    }
}

int
Lsq::classifyLoad(const DynInstPtr &load) const
{
    const Addr lo = load->effAddr;
    const Addr hi = lo + load->staticInst.memSize();

    // Scan older stores youngest-first so the first overlapping store
    // found is the forwarding candidate.
    std::size_t i = *std::ranges::partition_point(
        std::views::iota(std::size_t{0}, storeList.size()),
        [&](std::size_t k) { return storeList[k]->seq <= load->seq; });
    int cls = 0;
    SeqNum dep = 0;
    while (i != 0) {
        const DynInstPtr &st = storeList[--i];
        if (!st->addrReady) {
            cls = 2;  // unknown older address: conservative wait
            dep = st->seq;
            break;
        }
        const Addr slo = st->effAddr;
        const Addr shi = slo + st->staticInst.memSize();
        if (slo < hi && lo < shi) {
            // Overlap: forward only on full coverage with ready data.
            const bool covers = slo <= lo && shi >= hi;
            const bool data_ready = scoreboard.isReady(st->physSrc[1]);
            cls = (covers && data_ready) ? 1 : 2;
            dep = st->seq;
            break;
        }
    }
    load->lsqCls = static_cast<std::int8_t>(cls);
    load->lsqBlockSeq = dep;
    return cls;
}

void
Lsq::storeEvent(SeqNum seq)
{
    // Only classes 1/2 carry a store dependence; class 0 ("no older
    // store can match") cannot be broken by resolving, completing or
    // committing a store, so it stays cached until the load issues.
    for (const DynInstPtr &load : pendingLoads) {
        if (load->lsqCls > 0 && load->lsqBlockSeq == seq)
            load->lsqCls = -1;
    }
}

void
Lsq::sendLoadAccess(const DynInstPtr &inst, Cycle cycle)
{
    inst->memAccessSent = true;
    loadsIssued.inc();
    ++pendingAccesses;

    if (freeInflight.empty()) {
        freeInflight.push_back(
            static_cast<std::uint32_t>(inflightLoads.size()));
        inflightLoads.emplace_back();
    }
    const std::uint32_t slot = freeInflight.back();
    freeInflight.pop_back();
    inflightLoads[slot] = inst;
    dcache.access(inst->effAddr, false, cycle, MemReply{this, slot}, true);
}

void
Lsq::handleEvent(Cycle when, unsigned kind, std::uint64_t tag)
{
    if (tag == kStoreDrainTag) {
        --pendingAccesses;
        return;
    }
    if (kind == kMissNotify) {
        const DynInstPtr &inst = inflightLoads[tag];
        if (!inst->squashed)
            cb.onLoadMiss(inst, when);
        return;
    }
    const DynInstPtr inst = std::move(inflightLoads[tag]);
    freeInflight.push_back(static_cast<std::uint32_t>(tag));
    --pendingAccesses;
    if (inst->squashed)
        return;
    const auto outcome = static_cast<AccessOutcome>(kind);
    inst->loadWasL1Hit = outcome == AccessOutcome::Hit;
    inst->loadWasDelayedHit = outcome == AccessOutcome::DelayedHit;
    cb.onLoadComplete(inst, when);
}

void
Lsq::tick(Cycle cycle)
{
    // 1. Complete matured store-to-load forwards.
    for (auto it = pendingForwards.begin(); it != pendingForwards.end();) {
        if (it->first->squashed) {
            it = pendingForwards.erase(it);
        } else if (it->second <= cycle) {
            DynInstPtr inst = it->first;
            cb.onLoadComplete(inst, cycle);
            it = pendingForwards.erase(it);
        } else {
            ++it;
        }
    }

    // 2. Drain committed stores to the data cache through free ports.
    while (!drainBuffer.empty() && fu.tryAcquirePort(cycle)) {
        const Addr addr = drainBuffer.popFront();
        storeDrains.inc();
        ++pendingAccesses;
        dcache.access(addr, true, cycle, MemReply{this, kStoreDrainTag});
    }

    // 3. Stores whose data just became ready are now commit-eligible.
    //    The list holds only address-ready stores still waiting on
    //    their data register, oldest first.
    if (!dataWaitStores.empty()) {
        std::size_t keep = 0;
        for (std::size_t i = 0; i < dataWaitStores.size(); ++i) {
            DynInstPtr &inst = dataWaitStores[i];
            if (inst->completed || inst->squashed)
                continue;  // drop
            if (scoreboard.isReady(inst->physSrc[1])) {
                storeEvent(inst->seq);
                cb.onStoreReady(inst, cycle);
                if (inst->completed)
                    continue;  // drop
            }
            dataWaitStores[keep++] = std::move(inst);
        }
        dataWaitStores.resize(keep);
    }

    // 4. Issue ready loads (oldest first; non-conflicting loads may
    //    bypass stalled ones).  Once the cache ports are exhausted the
    //    remaining loads are not examined this cycle, matching the
    //    original scan's early exit.
    if (!pendingLoads.empty()) {
        std::size_t keep = 0;
        bool ports_exhausted = false;
        for (std::size_t i = 0; i < pendingLoads.size(); ++i) {
            DynInstPtr &inst = pendingLoads[i];
            if (ports_exhausted) {
                pendingLoads[keep++] = std::move(inst);
                continue;
            }
            const int cls =
                inst->lsqCls >= 0 ? inst->lsqCls : classifyLoad(inst);
            if (cls == 2) {
                loadConflictStalls.inc();
                pendingLoads[keep++] = std::move(inst);
                continue;
            }
            if (!fu.tryAcquirePort(cycle)) {
                portStalls.inc();
                ports_exhausted = true;
                pendingLoads[keep++] = std::move(inst);
                continue;
            }
            if (cls == 1) {
                inst->memAccessSent = true;
                inst->loadForwarded = true;
                loadForwards.inc();
                pendingForwards.emplace_back(inst, cycle + 1);
            } else {
                sendLoadAccess(inst, cycle);
            }
        }
        pendingLoads.resize(keep);
    }
}

void
Lsq::commitStore(const DynInstPtr &inst, Cycle cycle)
{
    SCIQ_ASSERT(!entries.empty() && entries.front() == inst,
                "committing store that is not the LSQ head");
    entries.popFront();
    SCIQ_ASSERT(!storeList.empty() && storeList.front() == inst,
                "store list out of sync at commit");
    storeList.popFront();
    // The departed store can unblock loads that were waiting on it.
    storeEvent(inst->seq);
    drainBuffer.pushBackGrow(inst->effAddr);
    (void)cycle;
}

void
Lsq::commitLoad(const DynInstPtr &inst)
{
    SCIQ_ASSERT(!entries.empty() && entries.front() == inst,
                "committing load that is not the LSQ head");
    entries.popFront();
}

void
Lsq::squash(SeqNum youngest_kept)
{
    while (!entries.empty() && entries.back()->seq > youngest_kept)
        entries.popBack();
    while (!storeList.empty() && storeList.back()->seq > youngest_kept)
        storeList.popBack();
    // Squashed entries are strictly younger than every survivor, so no
    // surviving load's cached class can depend on a removed store.
    while (!pendingLoads.empty() &&
           pendingLoads.back()->seq > youngest_kept) {
        pendingLoads.pop_back();
    }
    while (!dataWaitStores.empty() &&
           dataWaitStores.back()->seq > youngest_kept) {
        dataWaitStores.pop_back();
    }
    pendingForwards.erase(
        std::remove_if(pendingForwards.begin(), pendingForwards.end(),
                       [youngest_kept](const auto &p) {
                           return p.first->seq > youngest_kept;
                       }),
        pendingForwards.end());
}

bool
Lsq::busy() const
{
    return pendingAccesses > 0 || !drainBuffer.empty() ||
           !pendingForwards.empty();
}

} // namespace sciq
