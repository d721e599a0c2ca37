// Scalar reference kernel — the portable ground truth every SIMD variant
// must match bit-for-bit. The determinism contract this file defines (and
// kernel_parity_test enforces):
//
//  - distance(i, j) accumulates (x[d] − c[d])² over d in ascending order
//    into a single accumulator, with no FMA contraction (this TU builds
//    with -ffp-contract=off);
//  - the argmin scans j in ascending order and replaces only on a strictly
//    smaller distance, so ties break toward the lower centroid index;
//  - AccumulateBlock applies exactly one w·x[d] multiply and one add per
//    (point, coordinate), in ascending point order;
//  - PruneBlock (PruneRows below) computes each point's distance to its
//    own centroid as one such distance, and its bound arithmetic with
//    correctly rounded IEEE operations only (−, ·, √, ordered compares),
//    so a SIMD kernel doing the same operations per lane gets the same
//    bits and the same decisions.

#include <algorithm>
#include <cmath>
#include <limits>

#include "cluster/kernels/internal.h"

namespace pmkm {
namespace kernels {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

// Exactness of the pruning test. Let D_j be the exact distance from x to
// centroid j and a the point's previous assignment. The AssignBlock scan
// returns (a, fl(d²_a)) iff fl(d²_j) > fl(d²_a) for every j ≠ a (strict,
// so tie-breaking by index never comes into play). A computed squared
// distance is within a relative γ ≈ (dim + 2)·2⁻⁵³ of D², so
// D_j > D_a·(1 + 2γ) for all j ≠ a suffices. The test below implies that,
// since δ = kPruneSlack ≫ γ:
//  - l ≤ min_{j≠a} D_j is invariant. A scan sets l to √fl(second2)·(1 − δ)
//    (cluster/lloyd.cc); a pass whose centroids moved by at most M lowers
//    it to (l − shift)·(1 − δ) with shift = M·(1 + δ). The (1 ± δ)
//    factors absorb the rounding of √, of M and of the subtraction, so
//    each update lands below the exact bound and no error accumulates.
//  - s[a] is ½·min_{j≠a} ‖c_a − c_j‖ up to γ, and the triangle inequality
//    gives D_j ≥ 2·s[a] − D_a.
// Bounds outside (kPruneMinBound, kPruneMaxBound) are not used, so no
// square involved under- or overflows. NaN compares false and keeps the
// point. max(s, l) is (s < l ? l : s), which the AVX2 kernel's
// _mm256_max_pd(l, s) equals for NaN and signed zeros too.
//
// The compaction is branch-free: every point writes rows[m], and only a
// point that needs the scan advances m.
size_t PruneRows(const double* points, size_t begin, size_t n, size_t dim,
                 const double* centroids, const uint32_t* assign,
                 const double* s, double shift, double* lower,
                 double* dist2, uint32_t* rows, size_t m) {
  for (size_t t = begin; t < n; ++t) {
    const double* x = points + t * dim;
    const double* c = centroids + assign[t] * dim;
    double d2 = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      const double diff = x[d] - c[d];
      d2 += diff * diff;
    }
    if (shift > 0.0) lower[t] = (lower[t] - shift) * (1.0 - kPruneSlack);
    const double bound = std::max(s[assign[t]], lower[t]) *
                         (1.0 - kPruneSlack);
    const bool pruned = (bound > kPruneMinBound) & (bound < kPruneMaxBound) &
                        (std::sqrt(d2) * (1.0 + kPruneSlack) < bound);
    dist2[t] = d2;
    rows[m] = static_cast<uint32_t>(t);
    m += !pruned;
  }
  return m;
}

// External linkage on purpose: these member functions are the
// assignment hot path, and the sampling profiler's dladdr
// symbolization only resolves dynamic-table symbols — an
// anonymous-namespace kernel shows up as hex addresses in
// /pprofz and folded-stack output.
class ScalarDistanceKernel final : public DistanceKernel {
 public:
  const char* name() const override { return "scalar"; }
  KernelKind kind() const override { return KernelKind::kScalar; }

  void AssignBlock(const double* points, size_t n, size_t dim,
                   const CentroidBlock& centroids, uint32_t* assign,
                   double* dist2, double* second2,
                   const uint32_t* rows) const override {
    const size_t k = centroids.k();
    const size_t kp = centroids.padded_k();
    const double* ct = centroids.transposed();
    PMKM_DCHECK(k > 0 && centroids.dim() == dim);
    for (size_t i = 0; i < n; ++i) {
      const double* x = points + (rows != nullptr ? rows[i] : i) * dim;
      size_t best = 0;
      double d_best = kInf;
      double d_second = kInf;
      for (size_t j = 0; j < k; ++j) {
        double acc = 0.0;
        for (size_t d = 0; d < dim; ++d) {
          const double diff = x[d] - ct[d * kp + j];
          acc += diff * diff;
        }
        if (acc < d_best) {
          d_second = d_best;
          d_best = acc;
          best = j;
        } else if (acc < d_second) {
          d_second = acc;
        }
      }
      assign[i] = static_cast<uint32_t>(best);
      dist2[i] = d_best;
      if (second2 != nullptr) second2[i] = d_second;
    }
  }

  size_t PruneBlock(const double* points, size_t n, size_t dim,
                    const double* centroids, const uint32_t* assign,
                    const double* s, double shift, double* lower,
                    double* dist2, uint32_t* rows) const override {
    return PruneRows(points, 0, n, dim, centroids, assign, s, shift, lower,
                     dist2, rows, 0);
  }

  void AccumulateBlock(const double* points, const double* weights,
                       size_t n, size_t dim, const uint32_t* assign,
                       double* sums, double* cluster_weight) const override {
    for (size_t i = 0; i < n; ++i) {
      const double* x = points + i * dim;
      const double w = weights != nullptr ? weights[i] : 1.0;
      double* sum = sums + assign[i] * dim;
      for (size_t d = 0; d < dim; ++d) sum[d] += w * x[d];
      cluster_weight[assign[i]] += w;
    }
  }

  void CentroidDriftAndSeparation(const double* old_centroids,
                                  const double* new_centroids,
                                  const CentroidBlock& block, size_t k,
                                  size_t dim, double* drift,
                                  double* s) const override {
    PMKM_DCHECK(block.k() == k && block.dim() == dim);
    if (drift != nullptr) {
      for (size_t j = 0; j < k; ++j) {
        const double* o = old_centroids + j * dim;
        const double* c = new_centroids + j * dim;
        double acc = 0.0;
        for (size_t d = 0; d < dim; ++d) {
          const double diff = o[d] - c[d];
          acc += diff * diff;
        }
        drift[j] = std::sqrt(acc);
      }
    }
    const size_t kp = block.padded_k();
    const double* ct = block.transposed();
    for (size_t j = 0; j < k; ++j) {
      const double* c = new_centroids + j * dim;
      double nearest = kInf;
      for (size_t j2 = 0; j2 < k; ++j2) {
        if (j2 == j) continue;
        double acc = 0.0;
        for (size_t d = 0; d < dim; ++d) {
          const double diff = c[d] - ct[d * kp + j2];
          acc += diff * diff;
        }
        if (acc < nearest) nearest = acc;
      }
      s[j] = k > 1 ? 0.5 * std::sqrt(nearest) : kInf;
    }
  }
};


const DistanceKernel* ScalarKernel() {
  static const ScalarDistanceKernel kernel;
  return &kernel;
}

}  // namespace kernels
}  // namespace pmkm
