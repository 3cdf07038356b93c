/**
 * @file
 * In-process PC sampler: a preloadable shared library that profiles
 * whatever program it is loaded into, for hosts without a hardware
 * PMU or `perf`.
 *
 * On load it arms setitimer(ITIMER_PROF) on its own process; each
 * SIGPROF records the interrupted program counter in a fixed buffer
 * (the handler only stores, so it is async-signal-safe).  At exit the
 * samples are grouped by address and written as a histogram, one line
 * per address:
 *
 *     <count> <module path> <hex offset into the module>
 *
 * The offset comes from dladdr() (address minus the module's load
 * base), so it stays valid for position-independent executables and
 * shared libraries alike.  tools/pc_symbolize.py turns the histogram
 * into a function table with `addr2line -i` (build with -g).
 *
 * Usage:
 *
 *     LD_PRELOAD=build/tools/libpc_sampler.so \
 *     PC_SAMPLER_OUT=/tmp/pcs.txt ./build/bench/micro_components ...
 *     python3 tools/pc_symbolize.py /tmp/pcs.txt
 *
 * PC_SAMPLER_OUT names the histogram (default pc_samples.<pid>.txt).
 *
 * The timer asks for one sample per millisecond of CPU time; the kernel
 * rounds that up to its timer tick, so a 250 Hz kernel gives 250
 * samples per CPU second and a 40 s run about 10k samples.  If the
 * handler or the timer cannot be installed, the library says so on
 * stderr rather than write an empty profile.  ITIMER_PROF counts the CPU time
 * of the whole process, so a multi-threaded program is sampled in
 * whichever thread the signal lands on.  The library is never linked
 * into the simulator itself.
 */

#include <dlfcn.h>
#include <errno.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace {

constexpr std::size_t kMaxSamples = 1 << 20;
constexpr long kIntervalUsec = 1000;

std::uintptr_t g_samples[kMaxSamples];
std::atomic<std::size_t> g_count{0};
std::atomic<std::size_t> g_dropped{0};

std::uintptr_t
interruptedPc(void *uctx)
{
    const auto *uc = static_cast<const ucontext_t *>(uctx);
#if defined(__x86_64__)
    return static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    return static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
    (void)uc;
    return 0;
#endif
}

void
onProf(int, siginfo_t *, void *uctx)
{
    const std::uintptr_t pc = interruptedPc(uctx);
    const std::size_t i = g_count.fetch_add(1, std::memory_order_relaxed);
    if (i < kMaxSamples)
        g_samples[i] = pc;
    else
        g_dropped.fetch_add(1, std::memory_order_relaxed);
}

bool
setTimer(long usec)
{
    itimerval tv{};
    tv.it_interval.tv_usec = usec;
    tv.it_value.tv_usec = usec;
    return setitimer(ITIMER_PROF, &tv, nullptr) == 0;
}

__attribute__((constructor)) void
startSampling()
{
    struct sigaction sa{};
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, nullptr) != 0) {
        std::fprintf(stderr, "pc_sampler: cannot install the SIGPROF "
                             "handler: %s; not sampling\n",
                     std::strerror(errno));
        return;
    }
    if (!setTimer(kIntervalUsec))
        std::fprintf(stderr, "pc_sampler: setitimer(ITIMER_PROF) failed: "
                             "%s; not sampling\n",
                     std::strerror(errno));
}

__attribute__((destructor)) void
writeHistogram()
{
    setTimer(0);
    signal(SIGPROF, SIG_IGN);
    const std::size_t n =
        std::min(g_count.load(std::memory_order_relaxed), kMaxSamples);
    std::vector<std::uintptr_t> pcs(g_samples, g_samples + n);
    std::sort(pcs.begin(), pcs.end());

    std::string path;
    if (const char *s = std::getenv("PC_SAMPLER_OUT"))
        path = s;
    else
        path = "pc_samples." + std::to_string(getpid()) + ".txt";
    FILE *out = std::fopen(path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "pc_sampler: cannot write %s\n", path.c_str());
        return;
    }
    // dladdr names the main program by how it was started (argv[0],
    // possibly relative); the kernel's link is absolute.
    char self[4096] = {};
    if (readlink("/proc/self/exe", self, sizeof self - 1) < 0)
        self[0] = '\0';
    for (std::size_t i = 0; i < pcs.size();) {
        std::size_t j = i;
        while (j < pcs.size() && pcs[j] == pcs[i])
            ++j;
        Dl_info info{};
        if (pcs[i] != 0 && dladdr(reinterpret_cast<void *>(pcs[i]), &info) &&
            info.dli_fname) {
            const auto base = reinterpret_cast<std::uintptr_t>(info.dli_fbase);
            const bool main_program =
                !info.dli_fname[0] ||
                std::strcmp(info.dli_fname, program_invocation_name) == 0;
            std::fprintf(out, "%zu %s 0x%llx\n", j - i,
                         main_program && self[0] ? self : info.dli_fname,
                         static_cast<unsigned long long>(pcs[i] - base));
        } else {
            std::fprintf(out, "%zu ? 0x%llx\n", j - i,
                         static_cast<unsigned long long>(pcs[i]));
        }
        i = j;
    }
    std::fclose(out);
    std::fprintf(stderr, "pc_sampler: %zu samples (%zu dropped) -> %s\n", n,
                 g_dropped.load(std::memory_order_relaxed), path.c_str());
}

} // namespace
