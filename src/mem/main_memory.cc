#include "main_memory.hh"

#include <algorithm>

#include "common/intmath.hh"

namespace sciq {

MainMemory::MainMemory(const MainMemoryParams &params, EventQueue &ev)
    : params_(params), events(ev), statsGroup("memory")
{
    transferCycles = static_cast<unsigned>(
        divCeil(params_.lineBytes, params_.bytesPerCycle));
    statsGroup.addScalar("reads", &reads, "line reads");
    statsGroup.addScalar("writes", &writes, "line writebacks");
    statsGroup.addScalar("bus_busy_cycles", &busBusyCycles,
                         "cycles the memory bus was occupied");
}

void
MainMemory::request(Addr, bool is_write, Cycle now, MemReply reply)
{
    if (is_write)
        writes.inc();
    else
        reads.inc();

    // The access overlaps with other accesses (banked DRAM) but the
    // data transfer serialises on the bus.
    Cycle data_ready = now + params_.latency;
    Cycle start = std::max(data_ready, busFree);
    Cycle finish = start + transferCycles;
    busFree = finish;
    busBusyCycles.inc(transferCycles);

    events.schedule(finish, reply.sink, kLineArrived, reply.tag);
}

} // namespace sciq
