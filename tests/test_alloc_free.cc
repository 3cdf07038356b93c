/**
 * @file
 * Steady-state allocation gate (DESIGN.md §10): once a core is warm,
 * a simulated cycle makes no heap allocation.  This binary replaces
 * the global operator new/delete with counting versions and counts the
 * allocations a core makes over simulated cycles [20 000, 60 000) on
 * the benchmark's queue shapes.  The count is exact and host-noise
 * free, so it gates where a timing could not.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "core/ooo_core.hh"
#include "sim/sim_config.hh"
#include "workload/workloads.hh"

namespace {

bool counting = false;
std::uint64_t allocations = 0;

void *
countedAlloc(std::size_t n, std::size_t align)
{
    if (counting)
        ++allocations;
    if (n == 0)
        n = 1;
    void *p = align <= alignof(std::max_align_t)
                  ? std::malloc(n)
                  : std::aligned_alloc(align, (n + align - 1) / align * align);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n, 0); }
void *operator new[](std::size_t n) { return countedAlloc(n, 0); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace sciq;

namespace {

constexpr Cycle kWarmCycles = 20000;
constexpr Cycle kCountedCycles = 40000;
/** At most one allocation per this many counted cycles. */
constexpr Cycle kCyclesPerAllowedAlloc = 1000;

struct AllocCase
{
    std::string name;
    std::string kernel;
    SimConfig cfg;
};

std::vector<AllocCase>
allocCases()
{
    std::vector<AllocCase> cases;
    for (const char *k : {"swim", "mgrid"}) {
        cases.push_back({std::string(k) + "_segmented512", k,
                         makeSegmentedConfig(512, 128, true, true, k)});
        cases.push_back(
            {std::string(k) + "_ideal512", k, makeIdealConfig(512, k)});
    }
    // The four 64-entry queues of the int64-branchy benchmark workload.
    cases.push_back({"gcc_ideal64", "gcc", makeIdealConfig(64, "gcc")});
    cases.push_back({"gcc_segmented64", "gcc",
                     makeSegmentedConfig(64, 128, true, true, "gcc")});
    SimConfig pre = makePrescheduledConfig(64, "gcc");
    pre.core.iq.issueBufferSize = 16;  // + 4 lines of 12 = 64 entries
    cases.push_back({"gcc_prescheduled64", "gcc", pre});
    cases.push_back({"gcc_fifo64", "gcc", makeFifoConfig(8, 8, "gcc")});
    for (AllocCase &c : cases)
        c.cfg.wl.iterations = 1 << 20;  // outlasts the counted window
    return cases;
}

void
PrintTo(const AllocCase &c, std::ostream *os)
{
    *os << c.name;
}

class AllocFree : public ::testing::TestWithParam<AllocCase>
{
};

TEST_P(AllocFree, SteadyStateCyclesDoNotAllocate)
{
    const AllocCase &c = GetParam();
    const Program prog = buildWorkload(c.kernel, c.cfg.wl);
    OooCore core(prog, c.cfg.core);
    for (Cycle t = 0; t < kWarmCycles; ++t)
        core.tick();

    allocations = 0;
    counting = true;
    for (Cycle t = 0; t < kCountedCycles; ++t)
        core.tick();
    counting = false;

    ASSERT_FALSE(core.halted()) << c.name << " halted inside the window";
    std::printf("[ alloc    ] %-20s %llu allocations over cycles "
                "[%llu, %llu)\n",
                c.name.c_str(), static_cast<unsigned long long>(allocations),
                static_cast<unsigned long long>(kWarmCycles),
                static_cast<unsigned long long>(kWarmCycles +
                                                kCountedCycles));
    EXPECT_LE(allocations, kCountedCycles / kCyclesPerAllowedAlloc)
        << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Queues, AllocFree, ::testing::ValuesIn(allocCases()),
    [](const ::testing::TestParamInfo<AllocCase> &info) {
        return info.param.name;
    });

} // namespace
