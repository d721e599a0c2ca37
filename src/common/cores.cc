#include "common/cores.h"

#include <array>
#include <atomic>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace pmkm {

#if defined(__linux__)
namespace {

constexpr int kMaxCpus = CPU_SETSIZE;

// Live leases per CPU id, process-wide.
std::array<std::atomic<uint32_t>, kMaxCpus> g_leases{};

bool ThreadMask(cpu_set_t* mask) {
  CPU_ZERO(mask);
  return sched_getaffinity(0, sizeof(*mask), mask) == 0;
}

bool SetThreadMask(const cpu_set_t& mask) {
  return pthread_setaffinity_np(pthread_self(), sizeof(mask), &mask) == 0;
}

}  // namespace
#endif

size_t AllowedCpuCount() {
#if defined(__linux__)
  cpu_set_t mask;
  if (ThreadMask(&mask) && CPU_COUNT(&mask) > 0) {
    return static_cast<size_t>(CPU_COUNT(&mask));
  }
#endif
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

uint32_t LeasesOn([[maybe_unused]] int cpu) {
#if defined(__linux__)
  if (cpu >= 0 && cpu < kMaxCpus) return g_leases[cpu].load();
#endif
  return 0;
}

CoreLease::CoreLease() {
#if defined(__linux__)
  cpu_set_t inherited;
  if (!ThreadMask(&inherited) || CPU_COUNT(&inherited) < 2) return;
  // Scan from the CPU after this one, so this CPU (the spawner's, after
  // an idle gap) wins only when every other allowed CPU has more leases.
  // -1 (unknown) scans from CPU 0.
  const int here = sched_getcpu();
  int best = -1;
  uint32_t fewest = 0;
  do {
    best = -1;
    for (int i = 1; i <= kMaxCpus; ++i) {
      const int cpu = (here + i) % kMaxCpus;
      if (!CPU_ISSET(cpu, &inherited)) continue;
      const uint32_t n = LeasesOn(cpu);
      if (best < 0 || n < fewest) {
        best = cpu;
        fewest = n;
      }
    }
    // A lost race means another lease changed this count: rescan.
  } while (!g_leases[best].compare_exchange_strong(fewest, fewest + 1));

  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  if (!SetThreadMask(one)) {
    g_leases[best].fetch_sub(1);
    return;
  }
  cpu_ = best;
  // Restore at once: the move is where the thread starts, not a pin. The
  // mask was just read, so this fails only if its CPUs went offline, and
  // then the thread keeps the leased one.
  (void)SetThreadMask(inherited);
#endif
}

CoreLease::~CoreLease() {
#if defined(__linux__)
  if (cpu_ >= 0) g_leases[cpu_].fetch_sub(1);
#endif
}

}  // namespace pmkm
