/**
 * @file
 * Main-memory timing model: fixed access latency plus a shared data bus
 * with finite bandwidth (Table 1: 100 cycles, 8 bytes per CPU cycle).
 */

#ifndef SCIQ_MEM_MAIN_MEMORY_HH
#define SCIQ_MEM_MAIN_MEMORY_HH

#include "common/event_queue.hh"
#include "common/stats.hh"
#include "mem/cache.hh"

namespace sciq {

struct MainMemoryParams
{
    unsigned latency = 100;        ///< access latency, cycles
    unsigned bytesPerCycle = 8;    ///< bus bandwidth
    unsigned lineBytes = 64;       ///< transfer unit
};

class MainMemory : public MemLevel
{
  public:
    MainMemory(const MainMemoryParams &params, EventQueue &events);

    void request(Addr line_addr, bool is_write, Cycle now,
                 MemReply reply) override;

    stats::Group &statGroup() { return statsGroup; }

    stats::Scalar reads;
    stats::Scalar writes;
    stats::Scalar busBusyCycles;

  private:
    MainMemoryParams params_;
    EventQueue &events;
    stats::Group statsGroup;
    Cycle busFree = 0;
    unsigned transferCycles;
};

} // namespace sciq

#endif // SCIQ_MEM_MAIN_MEMORY_HH
