// The kernel sweep of the parity tests and the micro-benchmarks.

#ifndef PMKM_BENCH_LIB_CLUSTER_KERNELS_H_
#define PMKM_BENCH_LIB_CLUSTER_KERNELS_H_

#include <vector>

#include "cluster/kernels/kernel.h"

namespace pmkm {

/// Every kernel this host can run, scalar first.
inline std::vector<const DistanceKernel*> AvailableKernels() {
  std::vector<const DistanceKernel*> out{&GetKernel(KernelKind::kScalar)};
  if (KernelAvailable(KernelKind::kAvx2)) {
    out.push_back(&GetKernel(KernelKind::kAvx2));
  }
  return out;
}

}  // namespace pmkm

#endif  // PMKM_BENCH_LIB_CLUSTER_KERNELS_H_
