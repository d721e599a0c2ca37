// Distance arithmetic: the one squared-distance formula in pmkm.
//
// Every distance in src/ is SquaredL2's subtract-square sum, in the
// operation order of every DistanceKernel lane, so a point's distance to
// a centroid has the same bits wherever it is computed. Batch
// nearest-centroid queries (metrics, validity, histograms, baselines) go
// through AssignNearest on the DistanceKernel (cluster/kernels/kernel.h);
// queries of one point at a time use NearestCentroidIndex below, the
// scalar scan the kernels reproduce.

#ifndef PMKM_CLUSTER_DISTANCE_H_
#define PMKM_CLUSTER_DISTANCE_H_

#include <cstddef>
#include <limits>
#include <span>

#include "data/dataset.h"

namespace pmkm {

/// ‖a − b‖² for raw pointers of length `dim`. Uses the operation order of
/// every DistanceKernel lane (one accumulator, ascending d, separate
/// multiply and add), so it is bitwise equal to the kernels' distance for
/// the pair — which holds only because src/ builds with -ffp-contract=off.
inline double SquaredL2(const double* a, const double* b, size_t dim) {
  double acc = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    const double diff = a[d] - b[d];
    acc += diff * diff;
  }
  return acc;
}

inline double SquaredL2(std::span<const double> a,
                        std::span<const double> b) {
  PMKM_DCHECK(a.size() == b.size());
  return SquaredL2(a.data(), b.data(), a.size());
}

/// Index of the centroid nearest to `x`, by the scan every DistanceKernel
/// reproduces: ascending j, strictly smaller SquaredL2 wins, so ties go to
/// the lower index and a NaN distance never wins. `dist2`, when non-null,
/// receives the winning squared distance (+inf when none is a number).
/// Requires a non-empty centroid set.
inline size_t NearestCentroidIndex(std::span<const double> x,
                                   const Dataset& centroids,
                                   double* dist2 = nullptr) {
  const size_t dim = centroids.dim();
  PMKM_DCHECK(!centroids.empty() && x.size() == dim);
  size_t best = 0;
  double d_best = std::numeric_limits<double>::infinity();
  for (size_t j = 0; j < centroids.size(); ++j) {
    const double d = SquaredL2(x.data(), centroids.data() + j * dim, dim);
    if (d < d_best) {
      d_best = d;
      best = j;
    }
  }
  if (dist2 != nullptr) *dist2 = d_best;
  return best;
}

}  // namespace pmkm

#endif  // PMKM_CLUSTER_DISTANCE_H_
