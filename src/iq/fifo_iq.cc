#include "fifo_iq.hh"

#include <algorithm>

namespace sciq {

FifoIq::FifoIq(const IqParams &params_, const Scoreboard &scoreboard_,
               const FuPool &fu_)
    : IqBase(params_, scoreboard_, fu_, "iq")
{
    fifos.resize(params.numFifos);
    for (auto &f : fifos)
        f.setCapacity(params.fifoDepth);
    statsGroup.addScalar("steered_behind_producer", &steeredBehindProducer,
                         "insts placed directly behind a producer");
    statsGroup.addScalar("steered_to_empty", &steeredToEmpty,
                         "insts placed at the head of an empty FIFO");
    statsGroup.addScalar("no_empty_fifo_stalls", &noEmptyFifoStalls,
                         "dispatch stalls waiting for an empty FIFO");
}

std::size_t
FifoIq::occupancy() const
{
    return totalOcc;
}

int
FifoIq::steer(const DynInstPtr &inst) const
{
    // Prefer a FIFO whose tail produces one of our pending operands.
    for (RegIndex r : gatingSources(inst->staticInst.srcRegs(),
                                    inst->isStore())) {
        if (r == kInvalidReg)
            continue;
        const DynInstPtr &p = producer[r];
        if (!p || p->squashed || p->issued)
            continue;
        for (std::size_t f = 0; f < fifos.size(); ++f) {
            if (!fifos[f].empty() && fifos[f].back() == p &&
                fifos[f].size() < params.fifoDepth) {
                return static_cast<int>(f);
            }
        }
    }
    // Otherwise an empty FIFO.
    for (std::size_t f = 0; f < fifos.size(); ++f) {
        if (fifos[f].empty())
            return static_cast<int>(f);
    }
    return -1;
}

bool
FifoIq::tryInsert(const DynInstPtr &inst, Cycle)
{
    const int f = steer(inst);
    if (f < 0) {
        noEmptyFifoStalls.inc();
        dispatchStallsFull.inc();
        return false;
    }
    if (fifos[static_cast<std::size_t>(f)].empty())
        steeredToEmpty.inc();
    else
        steeredBehindProducer.inc();
    fifos[static_cast<std::size_t>(f)].pushBack(inst);
    ++totalOcc;
    instsInserted.inc();

    RegIndex dst = inst->staticInst.dstReg();
    if (dst != kInvalidReg)
        producer[dst] = inst;
    return true;
}

void
FifoIq::issueSelect(Cycle, const TryIssue &try_issue)
{
    // Consider only FIFO heads, oldest first across FIFOs.
    std::vector<std::size_t> &ready = readyScratch;
    ready.clear();
    for (std::size_t f = 0; f < fifos.size(); ++f) {
        if (!fifos[f].empty() && operandsReady(*fifos[f].front()))
            ready.push_back(f);
    }
    std::sort(ready.begin(), ready.end(),
              [this](std::size_t a, std::size_t b) {
                  return fifos[a].front()->seq < fifos[b].front()->seq;
              });

    unsigned issued = 0;
    for (std::size_t f : ready) {
        if (issued >= params.issueWidth)
            break;
        DynInstPtr inst = fifos[f].front();
        if (!try_issue(inst))
            continue;  // structural hazard; another head may still go
        fifos[f].popFront();
        --totalOcc;
        instsIssued.inc();
        ++issued;
    }
}

void
FifoIq::tick(Cycle, bool)
{
    occupancyAvg.sample(static_cast<double>(occupancy()));
}

void
FifoIq::squash(SeqNum youngest_kept)
{
    for (auto &f : fifos) {
        while (!f.empty() && f.back()->seq > youngest_kept) {
            f.popBack();
            --totalOcc;
        }
    }
    for (auto &p : producer) {
        if (p && p->seq > youngest_kept)
            p = nullptr;
    }
}

} // namespace sciq
