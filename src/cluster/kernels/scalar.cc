// Scalar reference kernel — the portable ground truth every SIMD variant
// must match bit-for-bit. The determinism contract this file defines (and
// kernel_parity_test enforces):
//
//  - distance(i, j) accumulates (x[d] − c[d])² over d in ascending order
//    into a single accumulator, with no FMA contraction (this TU builds
//    with -ffp-contract=off);
//  - the argmin scans j in ascending order and replaces only on a strictly
//    smaller distance, so ties break toward the lower centroid index; one
//    loop (AssignMasked below) is the nearest-two scan of every caller;
//  - CentroidDriftAndSeparation reads the row-major centroids, the one
//    layout every primitive takes, and accumulates (c_a[d] − c_j[d])² for
//    owner a in ascending d;
//  - AccumulateBlock applies exactly one w·x[d] multiply and one add per
//    (point, coordinate), in ascending point order, and sums the weighted
//    SSE in the same ascending order into one accumulator that starts at
//    +0.0: sse += w·dist2[i], one multiply and one add per point;
//  - PruneBlock (PruneRows below) computes each point's distance to its
//    own centroid as one such distance, and its bound arithmetic with
//    correctly rounded IEEE operations only (−, ·, √, ordered compares),
//    so a SIMD kernel doing the same operations per lane gets the same
//    bits and the same decisions.

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "cluster/kernels/internal.h"

namespace pmkm {
namespace kernels {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

// Exactness of the pruning test. Let D_j be the exact distance from x to
// centroid j and a the point's previous assignment. The full scan
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
//
// Exactness of the Exponion ball (AssignMasked over a ring mask). Write
// U = ‖x − c_a‖ and S = ½·min_{j≠a} ‖c_a − c_j‖, exactly, and let D₂ be
// the second-smallest exact distance from x to a centroid. If a is not
// the nearest, the nearest and a are two centroids within U, so D₂ ≤ U;
// if a is the nearest, a's nearest other centroid is within U + 2S. So
// D₂ ≤ U + 2S, and every centroid j with D_j ≤ D₂ has
// ‖c_a − c_j‖ ≤ U + D_j ≤ 2U + 2S. The scan's outputs (the lowest index
// of the smallest computed distance, that distance, and the second of
// the multiset of computed distances) depend only on the centroids whose
// computed distance is at most the computed second; each of those has
// D_j ≤ D₂·(1 + 2γ), so it lies within (2U + 2S)·(1 + 2γ) of c_a. A
// scan of any superset of those centroids in ascending index with a
// strict < therefore returns the full scan's outputs: the smallest
// distance and all its ties are in the set, and so is a witness of the
// second. A mask is such a superset:
//  - R = (√dist2 + s[a])·kRingGrow is at least (2U + 2S)·(1 + δ/2), so
//    fl(R·R) ≥ (2U + 2S)²·(1 + δ/2), while a mask's column value, the
//    computed p_j = fl(‖c_a − c_j‖²), is at most ‖c_a − c_j‖²·(1 + γ);
//    δ ≫ γ absorbs every rounding in between. So a centroid that
//    matters has p_j < fl(R·R).
//  - RingLevel(·, s[a]) is monotone in its first argument, so
//    level(p_j) ≤ level(fl(R·R)), and the mask of the survivor's level
//    holds j.
//  - Survivors with s[a] or R outside (kPruneMinBound, kPruneMaxBound)
//    scan every centroid (kNoRing): within the range no square overflows,
//    and a subnormal square's absolute error (below 1e-300) is far
//    below δ·R² (R > 2e-100).
//  - A NaN distance never wins or becomes second, so a centroid with a
//    NaN coordinate may sit at any level; a column p_j = +inf (or NaN)
//    lands on the top level, and an excluded one is farther than R.
size_t PruneRows(const double* points, size_t begin, size_t n, size_t dim,
                 const double* centroids, const uint32_t* assign,
                 const double* s, double shift, double* lower,
                 double* dist2, uint32_t* rows, uint8_t* levels, size_t m) {
  for (size_t t = begin; t < n; ++t) {
    const double* x = points + t * dim;
    const double s_a = s[assign[t]];
    const double* c = centroids + assign[t] * dim;
    double d2 = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      const double diff = x[d] - c[d];
      d2 += diff * diff;
    }
    if (shift > 0.0) lower[t] = (lower[t] - shift) * (1.0 - kPruneSlack);
    const double bound = std::max(s_a, lower[t]) * (1.0 - kPruneSlack);
    const double u = std::sqrt(d2);
    const bool pruned = (bound > kPruneMinBound) & (bound < kPruneMaxBound) &
                        (u * (1.0 + kPruneSlack) < bound);
    dist2[t] = d2;
    rows[m] = static_cast<uint32_t>(t);
    if (levels != nullptr) {
      const double r = (u + s_a) * kRingGrow;
      const bool ring = (s_a > kPruneMinBound) & (s_a < kPruneMaxBound) &
                        (r > kPruneMinBound) & (r < kPruneMaxBound);
      levels[m] = ring ? RingLevel(r * r, s_a) : kNoRing;
    }
    m += !pruned;
  }
  return m;
}

void CentroidDrift(const double* old_centroids, const double* new_centroids,
                   size_t k, size_t dim, double* drift) {
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

namespace {

// Owner a's kRingLevels ring masks (CentroidDriftAndSeparation's `rings`)
// from its k squared pair distances pair2[j]; pair2[a] is not read.
// at[L] holds the columns of level L. An owner the ball cannot serve gets
// every column at level 0.
void BuildRings(const double* pair2, size_t k, size_t a, double s_a,
                uint64_t* rings) {
  uint64_t at[kRingLevels] = {};
  const bool ring = (s_a > kPruneMinBound) & (s_a < kPruneMaxBound);
  for (size_t j = 0; j < k; ++j) {
    const uint8_t level = ring && j != a ? RingLevel(pair2[j], s_a) : 0;
    at[level] |= uint64_t{1} << j;
  }
  uint64_t mask = 0;
  for (size_t level = 0; level < kRingLevels; ++level) {
    mask |= at[level];
    rings[level] = mask;
  }
}

}  // namespace

// External linkage on purpose: these member functions are the
// assignment hot path, and the sampling profiler's dladdr
// symbolization only resolves dynamic-table symbols — an
// anonymous-namespace kernel shows up as hex addresses in
// /pprofz and folded-stack output.
class ScalarDistanceKernel final : public DistanceKernel {
 public:
  const char* name() const override { return "scalar"; }
  KernelKind kind() const override { return KernelKind::kScalar; }

  size_t PruneBlock(const double* points, size_t n, size_t dim,
                    const double* centroids, const uint32_t* assign,
                    const double* s, double shift, double* lower,
                    double* dist2, uint32_t* rows,
                    uint8_t* levels) const override {
    return PruneRows(points, 0, n, dim, centroids, assign, s, shift, lower,
                     dist2, rows, levels, 0);
  }

  void AssignMasked(const double* points, size_t n, size_t dim,
                    const double* centroids, size_t k, const uint32_t* rows,
                    const uint64_t* masks, uint32_t* assign, double* dist2,
                    double* lower) const override {
    for (size_t p = 0; p < n; ++p) {
      const size_t r = rows != nullptr ? rows[p] : p;
      const double* x = points + r * dim;
      uint32_t best = 0;
      double d_best = kInf;
      double d_second = kInf;
      auto scan = [&](size_t j) {
        const double* c = centroids + j * dim;
        double acc = 0.0;
        for (size_t d = 0; d < dim; ++d) {
          const double diff = x[d] - c[d];
          acc += diff * diff;
        }
        if (acc < d_best) {
          d_second = d_best;
          d_best = acc;
          best = static_cast<uint32_t>(j);
        } else if (acc < d_second) {
          d_second = acc;
        }
      };
      if (masks == nullptr) {
        for (size_t j = 0; j < k; ++j) scan(j);
      } else {
        for (uint64_t bits = masks[p]; bits != 0; bits &= bits - 1) {
          scan(static_cast<size_t>(std::countr_zero(bits)));
        }
      }
      assign[r] = best;
      dist2[r] = d_best;
      if (lower != nullptr) {
        lower[r] = std::sqrt(d_second) * (1.0 - kPruneSlack);
      }
    }
  }

  double AccumulateBlock(const double* points, const double* weights,
                         const double* dist2, size_t n, size_t dim,
                         const uint32_t* assign, double* sums,
                         double* cluster_weight) const override {
    double sse = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double* x = points + i * dim;
      const double w = weights[i];
      double* sum = sums + assign[i] * dim;
      for (size_t d = 0; d < dim; ++d) sum[d] += w * x[d];
      cluster_weight[assign[i]] += w;
      sse += w * dist2[i];
    }
    return sse;
  }

  void CentroidDriftAndSeparation(const double* old_centroids,
                                  const double* new_centroids, size_t k,
                                  size_t dim, double* drift, double* s,
                                  uint64_t* rings) const override {
    PMKM_DCHECK(rings == nullptr || k <= kBallMaxK);
    if (drift != nullptr) {
      CentroidDrift(old_centroids, new_centroids, k, dim, drift);
    }
    double pair2[kBallMaxK];  // row j's squared pair distances
    for (size_t j = 0; j < k; ++j) {
      const double* c = new_centroids + j * dim;
      double nearest = kInf;
      for (size_t j2 = 0; j2 < k; ++j2) {
        if (j2 == j) continue;
        const double* c2 = new_centroids + j2 * dim;
        double acc = 0.0;
        for (size_t d = 0; d < dim; ++d) {
          const double diff = c[d] - c2[d];
          acc += diff * diff;
        }
        if (acc < nearest) nearest = acc;
        if (rings != nullptr) pair2[j2] = acc;
      }
      s[j] = k > 1 ? 0.5 * std::sqrt(nearest) : kInf;
      if (rings != nullptr) {
        BuildRings(pair2, k, j, s[j], rings + j * kRingLevels);
      }
    }
  }
};


const DistanceKernel* ScalarKernel() {
  static const ScalarDistanceKernel kernel;
  return &kernel;
}

}  // namespace kernels
}  // namespace pmkm
