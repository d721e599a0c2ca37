// The CPUs a thread may run on, and a process-wide start hint that puts
// each compute thread on its own one.
//
// After an idle gap the Linux scheduler tends to leave a freshly started
// or freshly woken thread on the CPU of the thread that started it. Two
// partial clones started together then share one CPU until the load
// balancer notices, which on a short run is never. A CoreLease moves its
// thread to the allowed CPU with the fewest live leases in this process
// and restores the inherited affinity mask at once: a start hint, not a
// pin, so the kernel stays free to balance afterwards (DESIGN.md §10).

#ifndef PMKM_COMMON_CORES_H_
#define PMKM_COMMON_CORES_H_

#include <cstddef>
#include <cstdint>

namespace pmkm {

/// CPUs in the calling thread's affinity mask (what `taskset` or a
/// cgroup cpuset allows), or hardware_concurrency() where the mask cannot
/// be read; at least 1.
size_t AllowedCpuCount();

/// Live CoreLeases on `cpu` in this process (0 for an id out of range).
uint32_t LeasesOn(int cpu);

/// Moves the calling thread to the allowed CPU with the fewest live
/// leases, ties going to the first CPU after the current one, then
/// restores the thread's mask. A one-CPU mask, a failed move or a
/// non-Linux build takes no lease and moves nothing. Lock-free: claims
/// are CASes on per-CPU counts, retried when another lease wins the race.
class CoreLease {
 public:
  CoreLease();
  ~CoreLease();

  CoreLease(const CoreLease&) = delete;
  CoreLease& operator=(const CoreLease&) = delete;

 private:
  int cpu_ = -1;  // the leased CPU; -1 = no lease
};

}  // namespace pmkm

#endif  // PMKM_COMMON_CORES_H_
