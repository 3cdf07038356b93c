#include "prescheduled_iq.hh"

#include <algorithm>

#include "common/errors.hh"

namespace sciq {

void
PrescheduledIq::checkGeometry(const IqParams &p)
{
    if (p.numEntries <= p.issueBufferSize) {
        throw ConfigError("config keys 'iq_size' and 'issue_buffer': " +
                          std::to_string(p.numEntries) +
                          " entries leave no scheduling array beside the " +
                          std::to_string(p.issueBufferSize) +
                          "-entry issue buffer");
    }
    const unsigned array_slots = p.numEntries - p.issueBufferSize;
    if (array_slots % p.preschedLineWidth != 0) {
        throw ConfigError("config keys 'iq_size', 'issue_buffer' and "
                          "'line_width': the " +
                          std::to_string(array_slots) +
                          "-slot scheduling array is not a whole number "
                          "of " + std::to_string(p.preschedLineWidth) +
                          "-wide lines");
    }
}

PrescheduledIq::PrescheduledIq(const IqParams &params_,
                               const Scoreboard &scoreboard_,
                               const FuPool &fu_)
    : IqBase(params_, scoreboard_, fu_, "iq")
{
    checkGeometry(params);
    const unsigned array_slots = params.numEntries - params.issueBufferSize;
    lines.setCapacity(array_slots / params.preschedLineWidth);
    while (!lines.full())
        lines.pushBack({});
    issueBuffer.reserve(params.issueBufferSize);

    statsGroup.addScalar("array_stall_cycles", &arrayStallCycles,
                         "cycles the array could not shift");
    statsGroup.addAverage("issue_buffer_occ", &issueBufferOcc,
                          "issue-buffer occupancy per cycle");
}

std::size_t
PrescheduledIq::occupancy() const
{
    std::size_t total = issueBuffer.size();
    for (std::size_t k = 0; k < lines.size(); ++k)
        total += lines[k].size();
    return total;
}

unsigned
PrescheduledIq::predictedLatency(const DynInst &inst) const
{
    if (inst.isLoad())
        return params.predictedLoadLatency;  // loads predicted as hits
    return fu.latency(inst.opClass());
}

unsigned
PrescheduledIq::predictedDelay(const DynInst &inst) const
{
    std::uint64_t ready = shiftCount;
    for (RegIndex r : gatingSources(inst.staticInst.srcRegs(),
                                    inst.isStore())) {
        if (r != kInvalidReg)
            ready = std::max(ready, regReadyShift[r]);
    }
    return static_cast<unsigned>(ready - shiftCount);
}

int
PrescheduledIq::findLine(unsigned want) const
{
    unsigned idx = std::min<unsigned>(want,
                                      static_cast<unsigned>(lines.size()) - 1);
    for (unsigned k = idx; k < lines.size(); ++k) {
        if (lines[k].size() < params.preschedLineWidth)
            return static_cast<int>(k);
    }
    return -1;
}

bool
PrescheduledIq::tryInsert(const DynInstPtr &inst, Cycle)
{
    const int line = findLine(predictedDelay(*inst));
    if (line < 0) {
        dispatchStallsFull.inc();
        return false;
    }
    lines[static_cast<std::size_t>(line)].push_back(inst);
    instsInserted.inc();

    RegIndex dst = inst->staticInst.dstReg();
    if (dst != kInvalidReg) {
        undoLog.pushBackGrow({inst->seq, dst, regReadyShift[dst]});
        // Result predicted ready once the instruction reaches the
        // issue buffer (`line`+1 shifts) and executes.  Using the
        // *placed* line (post clamping/overflow) keeps dependents
        // behind this instruction in the array.
        regReadyShift[dst] = shiftCount + static_cast<std::uint64_t>(line) +
                             1 + predictedLatency(*inst);
    }
    return true;
}

void
PrescheduledIq::issueSelect(Cycle, const TryIssue &try_issue)
{
    issueBufferOcc.sample(static_cast<double>(issueBuffer.size()));
    unsigned issued = 0;
    for (auto it = issueBuffer.begin();
         it != issueBuffer.end() && issued < params.issueWidth;) {
        if (operandsReady(**it) && try_issue(*it)) {
            instsIssued.inc();
            ++issued;
            it = issueBuffer.erase(it);
        } else {
            ++it;
        }
    }
}

void
PrescheduledIq::tick(Cycle, bool)
{
    // Shift the scheduling array one line toward the issue buffer,
    // stalling if the oldest line does not fit.
    auto &oldest = lines.front();
    if (issueBuffer.size() + oldest.size() <= params.issueBufferSize) {
        for (auto &inst : oldest)
            issueBuffer.push_back(inst);
        std::vector<DynInstPtr> reused = lines.popFront();
        reused.clear();
        lines.pushBack(std::move(reused));
        ++shiftCount;
    } else {
        arrayStallCycles.inc();
    }

    std::sort(issueBuffer.begin(), issueBuffer.end(),
              [](const DynInstPtr &a, const DynInstPtr &b) {
                  return a->seq < b->seq;
              });

    occupancyAvg.sample(static_cast<double>(occupancy()));
}

void
PrescheduledIq::onCommit(const DynInstPtr &inst)
{
    while (!undoLog.empty() && undoLog.front().seq <= inst->seq)
        undoLog.popFront();
}

void
PrescheduledIq::onSquashInst(const DynInstPtr &inst)
{
    while (!undoLog.empty() && undoLog.back().seq == inst->seq) {
        regReadyShift[undoLog.back().archDst] = undoLog.back().prevReady;
        undoLog.popBack();
    }
}

void
PrescheduledIq::squash(SeqNum youngest_kept)
{
    auto prune = [youngest_kept](std::vector<DynInstPtr> &v) {
        v.erase(std::remove_if(v.begin(), v.end(),
                               [youngest_kept](const DynInstPtr &p) {
                                   return p->seq > youngest_kept;
                               }),
                v.end());
    };
    prune(issueBuffer);
    for (std::size_t k = 0; k < lines.size(); ++k)
        prune(lines[k]);
}

} // namespace sciq
