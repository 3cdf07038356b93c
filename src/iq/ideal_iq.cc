#include "ideal_iq.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sciq {

IdealIq::IdealIq(const IqParams &params, const Scoreboard &scoreboard,
                 const FuPool &fu)
    : IqBase(params, scoreboard, fu, "iq")
{
    insts.reserve(2 * static_cast<std::size_t>(params.numEntries));
    readyList.reserve(params.numEntries);
    waiters.resize(scoreboard.size());
}

void
IdealIq::pushReady(const DynInstPtr &inst)
{
    // Almost always the youngest entry so far; fall back to a sorted
    // insert for the rare out-of-order wakeup.
    if (readyList.empty() || readyList.back()->seq < inst->seq) {
        readyList.push_back(inst);
        return;
    }
    auto pos = std::lower_bound(readyList.begin(), readyList.end(), inst,
                                [](const DynInstPtr &a, const DynInstPtr &b) {
                                    return a->seq < b->seq;
                                });
    readyList.insert(pos, inst);
}

bool
IdealIq::tryInsert(const DynInstPtr &inst, Cycle)
{
    if (live >= params.numEntries)
        return false;
    instsInserted.inc();
    if (insts.size() >= 2 * static_cast<std::size_t>(params.numEntries))
        compact();
    inst->ideal.slot = static_cast<std::uint32_t>(insts.size());
    insts.push_back(inst);
    ++live;
    inst->ideal.inQueue = true;

    int pending = 0;
    const auto srcs = iqSources(*inst);
    for (RegIndex r : srcs) {
        if (r == kInvalidReg || scoreboard.isReady(r))
            continue;
        ++pending;
        std::uint32_t n = freeNodes;
        if (n == kNoNode) {
            n = static_cast<std::uint32_t>(waiterNodes.size());
            waiterNodes.emplace_back();
        } else {
            freeNodes = waiterNodes[n].next;
        }
        waiterNodes[n] = {inst, kNoNode};
        WaitList &list = waiters[r];
        (list.tail == kNoNode ? list.head : waiterNodes[list.tail].next) = n;
        list.tail = n;
    }
    inst->ideal.pendingOps = pending;
    if (pending == 0)
        pushReady(inst);
    return true;
}

void
IdealIq::onRegReady(RegIndex r)
{
    if (r == kInvalidReg || static_cast<std::size_t>(r) >= waiters.size())
        return;
    WaitList &list = waiters[r];
    for (std::uint32_t n = list.head; n != kNoNode;) {
        WaiterNode &node = waiterNodes[n];
        const DynInstPtr w = std::move(node.inst);
        const std::uint32_t next = node.next;
        node.next = freeNodes;
        freeNodes = n;
        n = next;
        if (!w->ideal.inQueue)
            continue;  // squashed or issued while waiting
        if (--w->ideal.pendingOps == 0)
            pushReady(w);
    }
    list = WaitList{};
}

void
IdealIq::issueSelect(Cycle, const TryIssue &try_issue)
{
    unsigned issued = 0;
    for (auto it = readyList.begin();
         it != readyList.end() && issued < params.issueWidth;) {
        // Copy (and so refcount) only the entry actually issued.
        if (operandsReady(**it) && try_issue(*it)) {
            DynInstPtr inst = *it;
            instsIssued.inc();
            ++issued;
            inst->ideal.inQueue = false;
            it = readyList.erase(it);
            DynInstPtr &entry = insts[inst->ideal.slot];
            SCIQ_ASSERT(entry == inst,
                        "issued instruction missing from the ideal IQ");
            entry = nullptr;
            --live;
        } else {
            ++it;
        }
    }
}

void
IdealIq::compact()
{
    std::size_t kept = 0;
    for (std::size_t i = 0; i < insts.size(); ++i) {
        if (!insts[i])
            continue;
        insts[i]->ideal.slot = static_cast<std::uint32_t>(kept);
        if (i != kept)
            insts[kept] = std::move(insts[i]);
        ++kept;
    }
    insts.resize(kept);
}

void
IdealIq::tick(Cycle, bool)
{
    occupancyAvg.sample(static_cast<double>(live));
}

void
IdealIq::squash(SeqNum youngest_kept)
{
    // Both lists are seq-sorted, so the squashed set is a suffix; the
    // residency list's may be interleaved with tombstones.
    while (!insts.empty() &&
           (!insts.back() || insts.back()->seq > youngest_kept)) {
        if (insts.back()) {
            insts.back()->ideal.inQueue = false;
            --live;
        }
        insts.pop_back();
    }
    auto rpos = std::upper_bound(
        readyList.begin(), readyList.end(), youngest_kept,
        [](SeqNum s, const DynInstPtr &p) { return s < p->seq; });
    readyList.erase(rpos, readyList.end());
}

} // namespace sciq
