// Distance kernels: the innermost loops of every algorithm in pmkm.
//
// NearestCentroid uses the expansion ‖x−c‖² = ‖x‖² − 2·x·c + ‖c‖²: with
// per-centroid norms precomputed, the argmin needs only the dot product,
// nearly halving the flops of the naive subtract-square loop. The exact
// squared distance is recovered afterwards for the SSE bookkeeping.

#ifndef PMKM_CLUSTER_DISTANCE_H_
#define PMKM_CLUSTER_DISTANCE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "data/dataset.h"

namespace pmkm {

/// ‖a − b‖² for raw pointers of length `dim`. Uses the operation order of
/// every DistanceKernel lane (one accumulator, ascending d, separate
/// multiply and add), so it is bitwise equal to the kernels' distance for
/// the pair — which holds only because src/ builds with -ffp-contract=off.
/// The pruned assignment step in lloyd.cc relies on that equality.
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

/// Nearest-centroid query result.
struct Nearest {
  size_t index = 0;
  double distance_sq = 0.0;
};

/// Precomputes ‖c_j‖² for every centroid row (helper for the expanded
/// nearest-centroid form).
inline std::vector<double> CentroidSquaredNorms(const Dataset& centroids) {
  std::vector<double> norms(centroids.size());
  const size_t dim = centroids.dim();
  for (size_t j = 0; j < centroids.size(); ++j) {
    const double* c = centroids.data() + j * dim;
    double acc = 0.0;
    for (size_t d = 0; d < dim; ++d) acc += c[d] * c[d];
    norms[j] = acc;
  }
  return norms;
}

/// Finds the centroid minimizing ‖x−c_j‖² using precomputed ‖c_j‖²
/// (`norms`). The returned distance_sq is exact (clamped at 0 against
/// floating-point cancellation). Requires a non-empty centroid set.
inline Nearest NearestCentroid(const double* x, const Dataset& centroids,
                               const std::vector<double>& norms) {
  const size_t k = centroids.size();
  const size_t dim = centroids.dim();
  PMKM_DCHECK(k > 0 && norms.size() == k);
  size_t best = 0;
  double best_score = 0.0;
  const double* c = centroids.data();
  for (size_t j = 0; j < k; ++j, c += dim) {
    double dot = 0.0;
    for (size_t d = 0; d < dim; ++d) dot += x[d] * c[d];
    const double score = norms[j] - 2.0 * dot;  // ‖c‖² − 2 x·c
    if (j == 0 || score < best_score) {
      best_score = score;
      best = j;
    }
  }
  double xx = 0.0;
  for (size_t d = 0; d < dim; ++d) xx += x[d] * x[d];
  const double dist_sq = xx + best_score;
  return Nearest{best, dist_sq > 0.0 ? dist_sq : 0.0};
}

/// Convenience overload computing the norms on the fly (prefer the cached
/// variant inside loops).
inline Nearest NearestCentroid(std::span<const double> x,
                               const Dataset& centroids) {
  const std::vector<double> norms = CentroidSquaredNorms(centroids);
  return NearestCentroid(x.data(), centroids, norms);
}

}  // namespace pmkm

#endif  // PMKM_CLUSTER_DISTANCE_H_
