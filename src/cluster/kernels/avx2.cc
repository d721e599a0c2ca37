// AVX2 distance kernel. This TU is the only one compiled with
// -mavx2 -mfma (see src/cluster/CMakeLists.txt), so the rest of the build
// stays portable; availability is re-checked at runtime via CPUID before
// dispatch ever lands here.
//
// AssignBlock runs in two phases per block of 4 points:
//  1. Distances. Each pass computes 4 points × 8 centroids: the two 4-lane
//     centroid vectors of coordinate d are loaded once and reused by all
//     4 points, which keeps 8 independent accumulators in flight. The
//     distances go to a fixed-size stack scratch that tiles over
//     centroids, so its size does not depend on k.
//  2. Argmin, branch-free. Lane l of a point's state sees centroids
//     j ≡ l (mod 4) in ascending order and keeps its minimum m, its
//     second-smallest value s and the index of m (held as an exact
//     double): idx = d < m ? j : idx, s = min(max(m, d), s),
//     m = min(d, m). Permutes then reduce the 4 lanes.
//
// Determinism (must match kernels/scalar.cc bit-for-bit):
//  - every lane accumulates (x[d] − c[d])² over d in ascending order with
//    separate mul + add (never vfmadd — the different rounding of a fused
//    multiply-add would break cross-kernel parity), so each distance
//    equals the scalar kernel's exactly;
//  - the scalar scan returns the smallest distance, the lowest index
//    attaining it (strict compares; index 0 when no distance is below
//    +inf) and the second-smallest value of the multiset of distances
//    (a tie with the minimum counts). NaN distances never compare less,
//    so they are simply absent from that multiset;
//  - a lane's update keeps exactly the two smallest of its own distances,
//    with the lowest index of its minimum (strict <). MINPD/MAXPD return
//    the second operand when either is NaN, so with the operand order
//    above a NaN d leaves m, s and idx unchanged;
//  - the reduction takes M = min over lanes of m, then the lowest idx
//    among lanes whose m equals M (lanes that never won still hold their
//    initial idx 0..3, so an all-inf or all-NaN point gets index 0), and
//    the second as min(s of that lane, m of the other lanes) — the second
//    of a union of lanes is either the winner lane's own second or
//    another lane's minimum;
//  - padded lanes (CentroidBlock columns j >= k hold +inf coordinates)
//    produce +inf or NaN distances and can never win or become second
//    ahead of a real centroid's finite distance.
//
// PruneBlock runs the scalar reference's per-point arithmetic (PruneRows
// in kernels/scalar.cc) 4 points at a time, one point per lane: the same
// ascending-d mul + add distance to the point's own centroid (the 4 rows
// are transposed into lanes two coordinates at a time), _mm256_sqrt_pd
// (IEEE √ is correctly rounded, like std::sqrt), ordered compares (false
// on NaN), and _mm256_max_pd(l, s), which returns s unless l > s —
// exactly std::max(s, l). A tail of fewer than 4 points runs the
// reference.

#include "cluster/kernels/internal.h"

#if defined(__AVX2__) && (defined(__x86_64__) || defined(_M_X64))

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <limits>

namespace pmkm {
namespace kernels {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Points per register block, and centroids per stack-scratch tile (a
// multiple of the 8 centroids one phase-1 pass covers; CentroidBlock pads
// k to 8, so every pass is full).
constexpr size_t kBlockPoints = 4;
constexpr size_t kTileCentroids = 64;
static_assert(CentroidBlock::kLanePad == 8 && kTileCentroids % 8 == 0,
              "a phase-1 pass covers 8 padded centroid columns");

// Squared distances of point x to the 4 centroids starting at padded
// column j0, accumulated in ascending-d order (one mul + one add per
// coordinate, matching the scalar kernel).
inline __m256d Distance4(const double* x, const double* ct, size_t kp,
                         size_t dim, size_t j0) {
  __m256d acc = _mm256_setzero_pd();
  for (size_t d = 0; d < dim; ++d) {
    const __m256d xd = _mm256_set1_pd(x[d]);
    const __m256d c = _mm256_loadu_pd(ct + d * kp + j0);
    const __m256d diff = _mm256_sub_pd(xd, c);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
  }
  return acc;
}

// acc += (x − c)², lane-wise, as one mul and one add.
inline __m256d AddSquaredDiff(__m256d acc, __m256d x, __m256d c) {
  const __m256d diff = _mm256_sub_pd(x, c);
  return _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
}

// Coordinates d and d + 1 of 4 rows, transposed into lanes: *lo holds
// row p's coordinate d in lane p, *hi its coordinate d + 1. Two 128-bit
// inserts and two in-lane unpacks, where building each column from 4
// scalars would take 3 cross-lane shuffles.
inline void LoadColumnPair(const double* const rows[kBlockPoints], size_t d,
                           __m256d* lo, __m256d* hi) {
  const __m256d r02 = _mm256_insertf128_pd(
      _mm256_castpd128_pd256(_mm_loadu_pd(rows[0] + d)),
      _mm_loadu_pd(rows[2] + d), 1);
  const __m256d r13 = _mm256_insertf128_pd(
      _mm256_castpd128_pd256(_mm_loadu_pd(rows[1] + d)),
      _mm_loadu_pd(rows[3] + d), 1);
  *lo = _mm256_unpacklo_pd(r02, r13);
  *hi = _mm256_unpackhi_pd(r02, r13);
}

// Lane p: ‖x[p] − c[p]‖², accumulated in ascending-d order (one mul + one
// add per coordinate, matching the scalar kernel).
inline __m256d PairDistances(const double* const x[kBlockPoints],
                             const double* const c[kBlockPoints],
                             size_t dim) {
  __m256d acc = _mm256_setzero_pd();
  size_t d = 0;
  for (; d + 2 <= dim; d += 2) {
    __m256d x0, x1, c0, c1;
    LoadColumnPair(x, d, &x0, &x1);
    LoadColumnPair(c, d, &c0, &c1);
    acc = AddSquaredDiff(acc, x0, c0);
    acc = AddSquaredDiff(acc, x1, c1);
  }
  if (d < dim) {
    acc = AddSquaredDiff(acc,
                         _mm256_setr_pd(x[0][d], x[1][d], x[2][d], x[3][d]),
                         _mm256_setr_pd(c[0][d], c[1][d], c[2][d], c[3][d]));
  }
  return acc;
}

// Phase 1: out[p][j − j_begin] = ‖x[p] − c_j‖² for the 4 points and the
// padded columns [j_begin, j_end).
inline void DistanceTile(const double* const x[kBlockPoints],
                         const double* ct, size_t kp, size_t dim,
                         size_t j_begin, size_t j_end,
                         double (*out)[kTileCentroids]) {
  for (size_t j0 = j_begin; j0 < j_end; j0 += 8) {
    __m256d a00 = _mm256_setzero_pd(), a01 = a00, a10 = a00, a11 = a00;
    __m256d a20 = a00, a21 = a00, a30 = a00, a31 = a00;
    for (size_t d = 0; d < dim; ++d) {
      const double* c = ct + d * kp + j0;
      const __m256d c0 = _mm256_loadu_pd(c);
      const __m256d c1 = _mm256_loadu_pd(c + 4);
      const __m256d x0 = _mm256_set1_pd(x[0][d]);
      a00 = AddSquaredDiff(a00, x0, c0);
      a01 = AddSquaredDiff(a01, x0, c1);
      const __m256d x1 = _mm256_set1_pd(x[1][d]);
      a10 = AddSquaredDiff(a10, x1, c0);
      a11 = AddSquaredDiff(a11, x1, c1);
      const __m256d x2 = _mm256_set1_pd(x[2][d]);
      a20 = AddSquaredDiff(a20, x2, c0);
      a21 = AddSquaredDiff(a21, x2, c1);
      const __m256d x3 = _mm256_set1_pd(x[3][d]);
      a30 = AddSquaredDiff(a30, x3, c0);
      a31 = AddSquaredDiff(a31, x3, c1);
    }
    const size_t o = j0 - j_begin;
    _mm256_store_pd(out[0] + o, a00);
    _mm256_store_pd(out[0] + o + 4, a01);
    _mm256_store_pd(out[1] + o, a10);
    _mm256_store_pd(out[1] + o + 4, a11);
    _mm256_store_pd(out[2] + o, a20);
    _mm256_store_pd(out[2] + o + 4, a21);
    _mm256_store_pd(out[3] + o, a30);
    _mm256_store_pd(out[3] + o + 4, a31);
  }
}

// One point's per-lane argmin state (phase 2).
struct LaneArgmin {
  __m256d m;    // smallest distance seen by the lane
  __m256d s;    // second smallest
  __m256d idx;  // centroid index of m, as an exact double
};

// idx = d < m ? j : idx. A lane's j only grows and idx >= 0, so this is
// max(idx, lt & j): the masked j is +0.0 where d is not smaller.
inline void Update(LaneArgmin* st, __m256d d, __m256d j) {
  const __m256d lt = _mm256_cmp_pd(d, st->m, _CMP_LT_OQ);
  st->idx = _mm256_max_pd(st->idx, _mm256_and_pd(lt, j));
  st->s = _mm256_min_pd(_mm256_max_pd(st->m, d), st->s);
  st->m = _mm256_min_pd(d, st->m);
}

// Broadcasts the minimum of v's 4 lanes (v holds no NaN).
inline __m256d LaneMin(__m256d v) {
  v = _mm256_min_pd(v, _mm256_permute2f128_pd(v, v, 1));
  return _mm256_min_pd(v, _mm256_permute_pd(v, 0x5));
}

}  // namespace

// External linkage on purpose: these member functions are the
// assignment hot path, and the sampling profiler's dladdr
// symbolization only resolves dynamic-table symbols — an
// anonymous-namespace kernel shows up as hex addresses in
// /pprofz and folded-stack output.
class Avx2DistanceKernel final : public DistanceKernel {
 public:
  const char* name() const override { return "avx2"; }
  KernelKind kind() const override { return KernelKind::kAvx2; }

  void AssignBlock(const double* points, size_t n, size_t dim,
                   const CentroidBlock& centroids, uint32_t* assign,
                   double* dist2, double* second2,
                   const uint32_t* rows) const override {
    const size_t k = centroids.k();
    const size_t kp = centroids.padded_k();
    const double* ct = centroids.transposed();
    PMKM_DCHECK(k > 0 && centroids.dim() == dim && kp % 8 == 0);

    alignas(32) double scratch[kBlockPoints][kTileCentroids];
    const __m256d inf = _mm256_set1_pd(kInf);
    const __m256d lanes = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
    const __m256d four = _mm256_set1_pd(4.0);
    for (size_t i = 0; i < n; i += kBlockPoints) {
      // A short tail block repeats its last point; only real rows are
      // written back.
      const size_t live = std::min(kBlockPoints, n - i);
      const double* x[kBlockPoints];
      for (size_t p = 0; p < kBlockPoints; ++p) {
        const size_t r = i + std::min(p, live - 1);
        x[p] = points + (rows != nullptr ? rows[r] : r) * dim;
      }
      LaneArgmin st[kBlockPoints];
      for (LaneArgmin& lane : st) lane = {inf, inf, lanes};
      for (size_t t0 = 0; t0 < kp; t0 += kTileCentroids) {
        const size_t t1 = std::min(kp, t0 + kTileCentroids);
        DistanceTile(x, ct, kp, dim, t0, t1, scratch);
        __m256d j = _mm256_add_pd(
            _mm256_set1_pd(static_cast<double>(t0)), lanes);
        for (size_t o = 0; o < t1 - t0; o += 4) {
          Update(&st[0], _mm256_load_pd(scratch[0] + o), j);
          Update(&st[1], _mm256_load_pd(scratch[1] + o), j);
          Update(&st[2], _mm256_load_pd(scratch[2] + o), j);
          Update(&st[3], _mm256_load_pd(scratch[3] + o), j);
          j = _mm256_add_pd(j, four);
        }
      }
      for (size_t p = 0; p < live; ++p) {
        const __m256d best = LaneMin(st[p].m);
        const __m256d tied = _mm256_cmp_pd(st[p].m, best, _CMP_EQ_OQ);
        const __m256d j = LaneMin(_mm256_blendv_pd(inf, st[p].idx, tied));
        assign[i + p] = static_cast<uint32_t>(_mm256_cvtsd_f64(j));
        dist2[i + p] = _mm256_cvtsd_f64(best);
        if (second2 != nullptr) {
          // Lane indices are distinct mod 4, so exactly one lane won.
          const __m256d won = _mm256_cmp_pd(st[p].idx, j, _CMP_EQ_OQ);
          second2[i + p] =
              _mm256_cvtsd_f64(LaneMin(_mm256_blendv_pd(st[p].m, st[p].s,
                                                        won)));
        }
      }
    }
  }

  size_t PruneBlock(const double* points, size_t n, size_t dim,
                    const double* centroids, const uint32_t* assign,
                    const double* s, double shift, double* lower,
                    double* dist2, uint32_t* rows) const override {
    const bool decay = shift > 0.0;
    const __m256d shift4 = _mm256_set1_pd(shift);
    const __m256d shrink = _mm256_set1_pd(1.0 - kPruneSlack);
    const __m256d grow = _mm256_set1_pd(1.0 + kPruneSlack);
    const __m256d min_bound = _mm256_set1_pd(kPruneMinBound);
    const __m256d max_bound = _mm256_set1_pd(kPruneMaxBound);
    size_t m = 0;
    size_t t = 0;
    for (; t + kBlockPoints <= n; t += kBlockPoints) {
      const uint32_t a0 = assign[t], a1 = assign[t + 1];
      const uint32_t a2 = assign[t + 2], a3 = assign[t + 3];
      const double* const x[kBlockPoints] = {
          points + t * dim, points + (t + 1) * dim, points + (t + 2) * dim,
          points + (t + 3) * dim};
      const double* const c[kBlockPoints] = {
          centroids + a0 * dim, centroids + a1 * dim, centroids + a2 * dim,
          centroids + a3 * dim};
      const __m256d d2 = PairDistances(x, c, dim);
      __m256d l = _mm256_loadu_pd(lower + t);
      if (decay) {
        l = _mm256_mul_pd(_mm256_sub_pd(l, shift4), shrink);
        _mm256_storeu_pd(lower + t, l);
      }
      const __m256d sa = _mm256_setr_pd(s[a0], s[a1], s[a2], s[a3]);
      const __m256d bound = _mm256_mul_pd(_mm256_max_pd(l, sa), shrink);
      const __m256d in_range =
          _mm256_and_pd(_mm256_cmp_pd(bound, min_bound, _CMP_GT_OQ),
                        _mm256_cmp_pd(bound, max_bound, _CMP_LT_OQ));
      const __m256d proven = _mm256_cmp_pd(
          _mm256_mul_pd(_mm256_sqrt_pd(d2), grow), bound, _CMP_LT_OQ);
      const int pruned = _mm256_movemask_pd(_mm256_and_pd(in_range, proven));
      _mm256_storeu_pd(dist2 + t, d2);
      for (size_t p = 0; p < kBlockPoints; ++p) {
        rows[m] = static_cast<uint32_t>(t + p);
        m += ((pruned >> p) & 1) ^ 1;
      }
    }
    return PruneRows(points, t, n, dim, centroids, assign, s, shift, lower,
                     dist2, rows, m);
  }

  void AccumulateBlock(const double* points, const double* weights,
                       size_t n, size_t dim, const uint32_t* assign,
                       double* sums, double* cluster_weight) const override {
    for (size_t i = 0; i < n; ++i) {
      const double* x = points + i * dim;
      const double w = weights != nullptr ? weights[i] : 1.0;
      double* sum = sums + assign[i] * dim;
      const __m256d wv = _mm256_set1_pd(w);
      size_t d = 0;
      for (; d + 4 <= dim; d += 4) {
        const __m256d xv = _mm256_loadu_pd(x + d);
        const __m256d sv = _mm256_loadu_pd(sum + d);
        // mul + add (not FMA): bitwise-equal to the scalar kernel.
        _mm256_storeu_pd(sum + d,
                         _mm256_add_pd(sv, _mm256_mul_pd(wv, xv)));
      }
      for (; d < dim; ++d) sum[d] += w * x[d];
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
      // k×dim is tiny next to the n×k assignment scan; the scalar loop is
      // already exact and fast enough.
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
    const __m256d inf = _mm256_set1_pd(kInf);
    const __m256i step = _mm256_set1_epi64x(4);
    for (size_t j = 0; j < k; ++j) {
      const double* c = new_centroids + j * dim;
      const __m256i self = _mm256_set1_epi64x(static_cast<int64_t>(j));
      __m256i j_vec = _mm256_setr_epi64x(0, 1, 2, 3);
      __m256d nearest = inf;
      for (size_t j0 = 0; j0 < kp; j0 += 4) {
        __m256d d4 = Distance4(c, ct, kp, dim, j0);
        // Mask out the self-distance lane (j2 == j).
        const __m256d is_self =
            _mm256_castsi256_pd(_mm256_cmpeq_epi64(j_vec, self));
        d4 = _mm256_blendv_pd(d4, inf, is_self);
        nearest = _mm256_min_pd(nearest, d4);
        j_vec = _mm256_add_epi64(j_vec, step);
      }
      alignas(32) double nd[4];
      _mm256_store_pd(nd, nearest);
      double min_sq = nd[0];
      for (int l = 1; l < 4; ++l) {
        if (nd[l] < min_sq) min_sq = nd[l];
      }
      s[j] = 0.5 * std::sqrt(min_sq);
    }
  }
};


const DistanceKernel* Avx2Kernel() {
  static const Avx2DistanceKernel kernel;
  return &kernel;
}

bool CpuSupportsAvx2() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

}  // namespace kernels
}  // namespace pmkm

#else  // !__AVX2__

namespace pmkm {
namespace kernels {

const DistanceKernel* Avx2Kernel() { return nullptr; }

bool CpuSupportsAvx2() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

}  // namespace kernels
}  // namespace pmkm

#endif  // __AVX2__
