// Internal wiring between the kernel dispatcher and the per-ISA
// translation units. Each ISA TU exposes one factory that returns its
// singleton kernel, or nullptr when the TU was built without that ISA
// (the dispatcher then treats the kind as unavailable).

#ifndef PMKM_CLUSTER_KERNELS_INTERNAL_H_
#define PMKM_CLUSTER_KERNELS_INTERNAL_H_

#include "cluster/kernels/kernel.h"

namespace pmkm {
namespace kernels {

const DistanceKernel* ScalarKernel();  // never null
const DistanceKernel* Avx2Kernel();    // null unless built for x86-64
const DistanceKernel* NeonKernel();    // null unless built for aarch64

/// PruneBlock's reference semantics for tile rows [begin, n): appends
/// the indices of the points not pruned to rows[m, ...) and returns the
/// new count. The scalar and NEON kernels run it on the whole tile, the
/// AVX2 kernel on its tail of fewer than 4 points.
size_t PruneRows(const double* points, size_t begin, size_t n, size_t dim,
                 const double* centroids, const uint32_t* assign,
                 const double* s, double shift, double* lower,
                 double* dist2, uint32_t* rows, size_t m);

/// Runtime CPU probe for the AVX2+FMA path (build-time support is a
/// separate question answered by Avx2Kernel() != nullptr).
bool CpuSupportsAvx2();

}  // namespace kernels
}  // namespace pmkm

#endif  // PMKM_CLUSTER_KERNELS_INTERNAL_H_
