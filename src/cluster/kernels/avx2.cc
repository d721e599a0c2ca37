// AVX2 distance kernel. This TU is the only one compiled with
// -mavx2 -mfma (see src/cluster/CMakeLists.txt), so the rest of the build
// stays portable; availability is re-checked at runtime via CPUID before
// dispatch ever lands here.
//
// AssignMasked runs one scan body (MaskedSteps): 8 points per step, one
// per lane of two 4-wide vectors, against the row-major centroids in
// ascending index. Each lane accumulates its point's distance to
// centroid j and updates its state branch-free: the minimum m, the
// second-smallest value s and the index of m (held as an exact double):
// idx = d < m ? j : idx, s = min(max(m, d), s), m = min(d, m).
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
//  - a lane sees its point's centroids in that same ascending order and
//    its update keeps exactly the two smallest distances, with the lowest
//    index of the minimum (strict <; idx starts at 0). MINPD/MAXPD
//    return the second operand when either is NaN, so with the operand
//    order above a NaN d leaves m, s and idx unchanged — which is also
//    how a lane skips a centroid outside its own mask.
//
// PruneBlock runs the scalar reference's per-point arithmetic (PruneRows
// in kernels/scalar.cc) 4 points at a time, one point per lane: the same
// ascending-d mul + add distance to the point's own centroid (the 4 rows
// go into lanes two coordinates at a time), _mm256_sqrt_pd (IEEE √ is
// correctly rounded, like std::sqrt), ordered compares (false on NaN),
// and _mm256_max_pd(l, s), which returns s unless l > s — exactly
// std::max(s, l). A tail of fewer than 4 points runs the reference.
//
// CentroidDriftAndSeparation puts owners in lanes the same way: 4 owner
// centroids per step, one per lane, their coordinates moved into lanes
// once per step, and every centroid j broadcast from its row-major row.
// Lane p accumulates (c_{a0+p}[d] − c_j[d])² in ascending d, the scalar
// kernel's operand order, so the pair distances, s and the ring masks
// equal its bits. A tail of fewer than 4 owners repeats its last owner;
// only real owners are written.

#include "cluster/kernels/internal.h"

#if defined(__AVX2__) && (defined(__x86_64__) || defined(_M_X64))

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

namespace pmkm {
namespace kernels {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Points per PruneBlock step, and owners per CentroidDriftAndSeparation
// step (one per lane).
constexpr size_t kBlockPoints = 4;
// MaskedSteps: points per step (one per lane of two vectors); both
// MaskedSteps and CentroidDriftAndSeparation: the coordinates their
// lane-major stack scratch holds, and centroids per tile (one mask
// word).
constexpr size_t kMaskedLanes = 8;
constexpr size_t kMaskedMaxDim = 16;
constexpr size_t kMaskedTile = 64;

// acc += (x − c)², lane-wise, as one mul and one add.
inline __m256d AddSquaredDiff(__m256d acc, __m256d x, __m256d c) {
  const __m256d diff = _mm256_sub_pd(x, c);
  return _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
}

// Coordinates d and d + 1 of 4 rows, one row per lane: *lo holds
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

// Coordinates [e0, e0 + chunk) of 4 rows, one row per lane: lane p of
// coordinate e0 + e goes to out[e·stride + p], in full-width stores so
// the loads that read them back forward from them.
inline void StoreLanes(const double* const rows[kBlockPoints], size_t e0,
                       size_t chunk, double* out, size_t stride) {
  size_t e = 0;
  for (; e + 2 <= chunk; e += 2) {
    __m256d lo, hi;
    LoadColumnPair(rows, e0 + e, &lo, &hi);
    _mm256_store_pd(out + e * stride, lo);
    _mm256_store_pd(out + (e + 1) * stride, hi);
  }
  if (e < chunk) {
    const size_t d = e0 + e;
    _mm256_store_pd(out + e * stride, _mm256_setr_pd(rows[0][d], rows[1][d],
                                                     rows[2][d], rows[3][d]));
  }
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

// The per-lane argmin state of 4 points.
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

// BuildRings (kernels/scalar.cc) with the levels computed in lanes: the
// bit arithmetic of RingLevel on 4 columns at a time, its clamp by 32-bit
// max/min (the level difference fits in 32 bits, and the high halves go
// to 0), the low bytes of the 4 lanes packed into lv[j0, j0 + 4), over
// pair2's kp columns, k rounded up to a multiple of 4. Then the mask of
// level L is one byte compare lv < L + 1 per 32 columns. Columns past k
// hold 127, above every level.
inline void Avx2BuildRings(const double* pair2, size_t k, size_t kp,
                           size_t a, double s_a, uint64_t* rings) {
  alignas(32) int8_t lv[kBallMaxK];
  if ((s_a > kPruneMinBound) & (s_a < kPruneMaxBound)) {
    const __m256i base = _mm256_set1_epi64x(static_cast<int64_t>(
        (std::bit_cast<uint64_t>(s_a * s_a) >> 51) + 8));
    const __m256i top =
        _mm256_set1_epi64x(static_cast<int64_t>(kRingLevels) - 1);
    // Byte 0 of each 64-bit lane to bytes 0-1 of its 128-bit half.
    const __m256i low_bytes = _mm256_setr_epi8(
        0, 8, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
        0, 8, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
    for (size_t j0 = 0; j0 < kp; j0 += 4) {
      const __m256i level = _mm256_shuffle_epi8(
          _mm256_min_epi32(
              _mm256_max_epi32(
                  _mm256_sub_epi64(
                      _mm256_srli_epi64(
                          _mm256_castpd_si256(_mm256_load_pd(pair2 + j0)),
                          51),
                      base),
                  _mm256_setzero_si256()),
              top),
          low_bytes);
      const uint32_t packed =
          static_cast<uint32_t>(_mm256_extract_epi16(level, 0)) |
          static_cast<uint32_t>(_mm256_extract_epi16(level, 8)) << 16;
      std::memcpy(lv + j0, &packed, sizeof(packed));
    }
  } else {
    std::fill(lv, lv + k, int8_t{0});
  }
  lv[a] = 0;
  std::fill(lv + k, lv + kBallMaxK, int8_t{127});
  const __m256i lo = _mm256_load_si256(reinterpret_cast<const __m256i*>(lv));
  const __m256i hi =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(lv + 32));
  for (size_t level = 0; level < kRingLevels; ++level) {
    const __m256i bound = _mm256_set1_epi8(static_cast<char>(level + 1));
    rings[level] =
        static_cast<uint32_t>(
            _mm256_movemask_epi8(_mm256_cmpgt_epi8(bound, lo))) |
        static_cast<uint64_t>(static_cast<uint32_t>(
            _mm256_movemask_epi8(_mm256_cmpgt_epi8(bound, hi))))
            << 32;
  }
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

  size_t PruneBlock(const double* points, size_t n, size_t dim,
                    const double* centroids, const uint32_t* assign,
                    const double* s, double shift, double* lower,
                    double* dist2, uint32_t* rows,
                    uint8_t* levels) const override {
    const bool decay = shift > 0.0;
    const __m256d shift4 = _mm256_set1_pd(shift);
    const __m256d shrink = _mm256_set1_pd(1.0 - kPruneSlack);
    const __m256d grow = _mm256_set1_pd(1.0 + kPruneSlack);
    const __m256d ring_grow = _mm256_set1_pd(kRingGrow);
    const __m256d all_ones = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    const __m256i level_offset = _mm256_set1_epi64x(8);
    const __m256i top_level =
        _mm256_set1_epi64x(static_cast<int64_t>(kRingLevels) - 1);
    const __m256i no_ring_level = _mm256_set1_epi64x(kNoRing);
    const __m256d min_bound = _mm256_set1_pd(kPruneMinBound);
    const __m256d max_bound = _mm256_set1_pd(kPruneMaxBound);
    auto in_bounds = [&](__m256d v) {
      return _mm256_and_pd(_mm256_cmp_pd(v, min_bound, _CMP_GT_OQ),
                           _mm256_cmp_pd(v, max_bound, _CMP_LT_OQ));
    };
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
      const __m256d u = _mm256_sqrt_pd(d2);
      const __m256d proven =
          _mm256_cmp_pd(_mm256_mul_pd(u, grow), bound, _CMP_LT_OQ);
      const int pruned =
          _mm256_movemask_pd(_mm256_and_pd(in_bounds(bound), proven));
      _mm256_storeu_pd(dist2 + t, d2);
      if (levels == nullptr) {
        for (size_t p = 0; p < kBlockPoints; ++p) {
          rows[m] = static_cast<uint32_t>(t + p);
          m += ((pruned >> p) & 1) ^ 1;
        }
        continue;
      }
      // RingLevel(R·R, s[a]) per lane. The difference of the two bit
      // fields fits in 32 bits, so the 32-bit max/min clamp it (the high
      // halves go to 0).
      const __m256d r = _mm256_mul_pd(_mm256_add_pd(u, sa), ring_grow);
      const __m256d no_ring = _mm256_andnot_pd(
          _mm256_and_pd(in_bounds(sa), in_bounds(r)), all_ones);
      const __m256i level = _mm256_min_epi32(
          _mm256_max_epi32(
              _mm256_sub_epi64(
                  _mm256_srli_epi64(
                      _mm256_castpd_si256(_mm256_mul_pd(r, r)), 51),
                  _mm256_add_epi64(
                      _mm256_srli_epi64(
                          _mm256_castpd_si256(_mm256_mul_pd(sa, sa)), 51),
                      level_offset)),
              _mm256_setzero_si256()),
          top_level);
      alignas(32) uint64_t lane_level[kBlockPoints];
      _mm256_store_si256(reinterpret_cast<__m256i*>(lane_level),
                         _mm256_or_si256(level,
                                         _mm256_and_si256(
                                             _mm256_castpd_si256(no_ring),
                                             no_ring_level)));
      for (size_t p = 0; p < kBlockPoints; ++p) {
        rows[m] = static_cast<uint32_t>(t + p);
        levels[m] = static_cast<uint8_t>(lane_level[p]);
        m += ((pruned >> p) & 1) ^ 1;
      }
    }
    return PruneRows(points, t, n, dim, centroids, assign, s, shift, lower,
                     dist2, rows, levels, m);
  }

  void AssignMasked(const double* points, size_t n, size_t dim,
                    const double* centroids, size_t k, const uint32_t* rows,
                    const uint64_t* masks, uint32_t* assign, double* dist2,
                    double* lower) const override {
    if (rows != nullptr) {
      Masked<true>(points, n, dim, centroids, k, rows, masks, assign, dist2,
                   lower);
    } else {
      Masked<false>(points, n, dim, centroids, k, nullptr, masks, assign,
                    dist2, lower);
    }
  }

  double AccumulateBlock(const double* points, const double* weights,
                         const double* dist2, size_t n, size_t dim,
                         const uint32_t* assign, double* sums,
                         double* cluster_weight) const override {
    return dim == 6 ? AccumulateSteps<6>(points, weights, dist2, n, 6,
                                         assign, sums, cluster_weight)
                    : AccumulateSteps<0>(points, weights, dist2, n, dim,
                                         assign, sums, cluster_weight);
  }

  void CentroidDriftAndSeparation(const double* old_centroids,
                                  const double* new_centroids, size_t k,
                                  size_t dim, double* drift, double* s,
                                  uint64_t* rings) const override {
    PMKM_DCHECK(rings == nullptr || k <= kBallMaxK);
    if (drift != nullptr) {
      CentroidDrift(old_centroids, new_centroids, k, dim, drift);
    }
    const __m256d inf = _mm256_set1_pd(kInf);
    const size_t kp = (k + kBlockPoints - 1) / kBlockPoints * kBlockPoints;
    // The step's owner coordinates e0 + e, lane p at ot[e][p]; a tile's
    // distances carried between coordinate chunks; and, with rings, the
    // step's pair distances by column (pair[j][p]) and by owner
    // (row[p][j]).
    alignas(32) double ot[kMaskedMaxDim][kBlockPoints];
    alignas(32) double partial[kMaskedTile][kBlockPoints];
    alignas(32) double pair[kBallMaxK][kBlockPoints];
    alignas(32) double row[kBlockPoints][kBallMaxK];
    for (size_t a0 = 0; a0 < k; a0 += kBlockPoints) {
      const size_t live = std::min(kBlockPoints, k - a0);
      const double* o[kBlockPoints];
      for (size_t p = 0; p < kBlockPoints; ++p) {
        o[p] = new_centroids + (a0 + std::min(p, live - 1)) * dim;
      }
      const __m256i owner = _mm256_setr_epi64x(
          static_cast<int64_t>(a0), static_cast<int64_t>(a0 + 1),
          static_cast<int64_t>(a0 + 2), static_cast<int64_t>(a0 + 3));
      __m256d nearest = inf;
      for (size_t j0 = 0; j0 < k; j0 += kMaskedTile) {
        const size_t width = std::min(kMaskedTile, k - j0);
        for (size_t e0 = 0; e0 < dim; e0 += kMaskedMaxDim) {
          const size_t chunk = std::min(kMaskedMaxDim, dim - e0);
          StoreLanes(o, e0, chunk, ot[0], kBlockPoints);
          const bool last = e0 + chunk == dim;
          for (size_t t = 0; t < width; ++t) {
            const size_t j = j0 + t;
            const double* c = new_centroids + j * dim + e0;
            __m256d acc =
                e0 > 0 ? _mm256_load_pd(partial[t]) : _mm256_setzero_pd();
#pragma GCC unroll 16
            for (size_t f = 0; f < chunk; ++f) {
              acc = AddSquaredDiff(acc, _mm256_load_pd(ot[f]),
                                   _mm256_broadcast_sd(c + f));
            }
            if (!last) {
              _mm256_store_pd(partial[t], acc);
              continue;
            }
            if (rings != nullptr) _mm256_store_pd(pair[j], acc);
            // The self lane (owner j) reads +inf. MINPD returns its second
            // operand when either is NaN: a NaN distance leaves the lane
            // as it was, as the scalar scan skips it.
            const __m256d is_self = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
                owner, _mm256_set1_epi64x(static_cast<int64_t>(j))));
            nearest = _mm256_min_pd(_mm256_blendv_pd(acc, inf, is_self),
                                    nearest);
          }
        }
      }
      alignas(32) double nd[kBlockPoints];
      _mm256_store_pd(nd, nearest);
      for (size_t p = 0; p < live; ++p) s[a0 + p] = 0.5 * std::sqrt(nd[p]);
      if (rings == nullptr) continue;
      for (size_t j = k; j < kp; ++j) _mm256_store_pd(pair[j], inf);
      // pair's 4×4 blocks, turned into the owners' rows.
      for (size_t j0 = 0; j0 < kp; j0 += 4) {
        const __m256d r0 = _mm256_load_pd(pair[j0]);
        const __m256d r1 = _mm256_load_pd(pair[j0 + 1]);
        const __m256d r2 = _mm256_load_pd(pair[j0 + 2]);
        const __m256d r3 = _mm256_load_pd(pair[j0 + 3]);
        const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
        const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
        const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
        const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
        _mm256_store_pd(row[0] + j0, _mm256_permute2f128_pd(t0, t2, 0x20));
        _mm256_store_pd(row[1] + j0, _mm256_permute2f128_pd(t1, t3, 0x20));
        _mm256_store_pd(row[2] + j0, _mm256_permute2f128_pd(t0, t2, 0x31));
        _mm256_store_pd(row[3] + j0, _mm256_permute2f128_pd(t1, t3, 0x31));
      }
      for (size_t p = 0; p < live; ++p) {
        Avx2BuildRings(row[p], k, kp, a0 + p, s[a0 + p],
                       rings + (a0 + p) * kRingLevels);
      }
    }
  }

 private:
  // AccumulateBlock; kDim = 0 reads the dimension at run time. The D = 6
  // body does one 256-bit and one 128-bit multiply-then-add per point.
  // The SSE's add chain is latency-bound; the scatter's loads and stores
  // are not, so the chain runs in their shadow.
  template <size_t kDim>
  static double AccumulateSteps(const double* points, const double* weights,
                                const double* dist2, size_t n,
                                size_t dim_arg, const uint32_t* assign,
                                double* sums, double* cluster_weight) {
    const size_t dim = kDim != 0 ? kDim : dim_arg;
    double sse = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double* x = points + i * dim;
      const double w = weights[i];
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
      if constexpr (kDim == 6) {
        _mm_storeu_pd(sum + 4,
                      _mm_add_pd(_mm_loadu_pd(sum + 4),
                                 _mm_mul_pd(_mm256_castpd256_pd128(wv),
                                            _mm_loadu_pd(x + 4))));
      } else {
        for (; d < dim; ++d) sum[d] += w * x[d];
      }
      cluster_weight[assign[i]] += w;
      sse += w * dist2[i];
    }
    return sse;
  }

  // MaskedSteps with its dimension fixed at D = 6, the MISR cells', or
  // read at run time (kDim = 0).
  template <bool kRows>
  static void Masked(const double* points, size_t n, size_t dim,
                     const double* centroids, size_t k, const uint32_t* rows,
                     const uint64_t* masks, uint32_t* assign, double* dist2,
                     double* lower) {
    if (dim == 6) {
      MaskedSteps<6, kRows>(points, n, 6, centroids, k, rows, masks, assign,
                            dist2, lower);
    } else {
      MaskedSteps<0, kRows>(points, n, dim, centroids, k, rows, masks,
                            assign, dist2, lower);
    }
  }

  // AssignMasked's scan, 8 points per step, one per lane: point p is row
  // rows[p] when kRows, and row p otherwise. Each lane keeps its point's
  // minimum, second and index with Update, over the centroids in
  // ascending index: the union of the step's masks, or every j < k with
  // no masks, in tiles of kMaskedTile. A lane whose own mask lacks j
  // sees NaN for it, which leaves its state unchanged, so every lane
  // returns the scan of exactly its own mask. The step's points go into
  // lanes kMaskedMaxDim coordinates at a time; above that, a tile's
  // distances carry over between the chunks in `partial`, so each lane
  // still adds its coordinates in ascending order. A short tail repeats
  // its last point; only real rows are written back. `lower`, when
  // non-null, gets √s·(1 − δ).
  template <size_t kDim, bool kRows>
  static void MaskedSteps(const double* points, size_t n, size_t dim_arg,
                          const double* centroids, size_t k,
                          const uint32_t* rows, const uint64_t* masks,
                          uint32_t* assign, double* dist2, double* lower) {
    const size_t dim = kDim != 0 ? kDim : dim_arg;
    // With masks, only the first tile can hold a bit.
    const size_t span = masks != nullptr ? std::min(k, kMaskedTile) : k;
    const __m256d inf = _mm256_set1_pd(kInf);
    const __m256d zero = _mm256_setzero_pd();
    const __m256d shrink = _mm256_set1_pd(1.0 - kPruneSlack);
    // Coordinate e0 + e of the step's points: lanes 0-3 at xt[e], 4-7
    // at xt[e] + 4.
    alignas(32) double xt[kMaskedMaxDim][kMaskedLanes];
    alignas(32) double partial[kMaskedTile][kMaskedLanes];
    for (size_t i = 0; i < n; i += kMaskedLanes) {
      const size_t live = std::min(kMaskedLanes, n - i);
      const double* x[kMaskedLanes];
      uint64_t mask[kMaskedLanes];
      uint64_t any = 0;
      bool uniform = true;
      for (size_t p = 0; p < kMaskedLanes; ++p) {
        const size_t r = i + std::min(p, live - 1);
        x[p] = points + (kRows ? rows[r] : r) * dim;
        mask[p] = masks != nullptr ? masks[r] : 0;
        any |= mask[p];
        uniform &= mask[p] == mask[0];
      }
      const __m256i mask_lo =
          _mm256_setr_epi64x(static_cast<int64_t>(mask[0]),
                             static_cast<int64_t>(mask[1]),
                             static_cast<int64_t>(mask[2]),
                             static_cast<int64_t>(mask[3]));
      const __m256i mask_hi =
          _mm256_setr_epi64x(static_cast<int64_t>(mask[4]),
                             static_cast<int64_t>(mask[5]),
                             static_cast<int64_t>(mask[6]),
                             static_cast<int64_t>(mask[7]));
      // Lanes without j in their mask get all-ones bits: a NaN.
      auto gate = [&](size_t j, __m256d* acc_lo, __m256d* acc_hi) {
        if (uniform) return;
        const __m256i bit =
            _mm256_set1_epi64x(static_cast<int64_t>(uint64_t{1} << j));
        const __m256i none = _mm256_setzero_si256();
        *acc_lo = _mm256_or_pd(*acc_lo,
                               _mm256_castsi256_pd(_mm256_cmpeq_epi64(
                                   _mm256_and_si256(mask_lo, bit), none)));
        *acc_hi = _mm256_or_pd(*acc_hi,
                               _mm256_castsi256_pd(_mm256_cmpeq_epi64(
                                   _mm256_and_si256(mask_hi, bit), none)));
      };
      LaneArgmin lo = {inf, inf, zero}, hi = lo;
      for (size_t j0 = 0; j0 < span; j0 += kMaskedTile) {
        const size_t width = std::min(kMaskedTile, span - j0);
        const uint64_t tile =
            masks != nullptr ? any
            : width == kMaskedTile ? ~uint64_t{0}
                                   : (uint64_t{1} << width) - 1;
        for (size_t e0 = 0; e0 < dim; e0 += kMaskedMaxDim) {
          const size_t chunk = std::min(kMaskedMaxDim, dim - e0);
          StoreLanes(x, e0, chunk, xt[0], kMaskedLanes);
          StoreLanes(x + 4, e0, chunk, xt[0] + 4, kMaskedLanes);
          const bool last = e0 + chunk == dim;
          const double* tile_c = centroids + j0 * dim + e0;
          for (uint64_t bits = tile; bits != 0; bits &= bits - 1) {
            const size_t t = static_cast<size_t>(std::countr_zero(bits));
            const size_t j = j0 + t;
            const double* c = tile_c + t * dim;
            __m256d acc_lo = zero, acc_hi = zero;
            if (e0 > 0) {
              acc_lo = _mm256_load_pd(partial[t]);
              acc_hi = _mm256_load_pd(partial[t] + 4);
            }
#pragma GCC unroll 16
            for (size_t f = 0; f < chunk; ++f) {
              const __m256d cf = _mm256_broadcast_sd(c + f);
              acc_lo = AddSquaredDiff(acc_lo, _mm256_load_pd(xt[f]), cf);
              acc_hi = AddSquaredDiff(acc_hi, _mm256_load_pd(xt[f] + 4), cf);
            }
            if (!last) {
              _mm256_store_pd(partial[t], acc_lo);
              _mm256_store_pd(partial[t] + 4, acc_hi);
              continue;
            }
            gate(j, &acc_lo, &acc_hi);
            const __m256d jv =
                _mm256_set1_pd(static_cast<double>(static_cast<int64_t>(j)));
            Update(&lo, acc_lo, jv);
            Update(&hi, acc_hi, jv);
          }
        }
      }
      alignas(32) double best[kMaskedLanes], idx[kMaskedLanes],
          out[kMaskedLanes];
      _mm256_store_pd(best, lo.m);
      _mm256_store_pd(best + 4, hi.m);
      _mm256_store_pd(idx, lo.idx);
      _mm256_store_pd(idx + 4, hi.idx);
      _mm256_store_pd(out, _mm256_mul_pd(_mm256_sqrt_pd(lo.s), shrink));
      _mm256_store_pd(out + 4, _mm256_mul_pd(_mm256_sqrt_pd(hi.s), shrink));
      for (size_t p = 0; p < live; ++p) {
        const size_t row = kRows ? rows[i + p] : i + p;
        assign[row] = static_cast<uint32_t>(idx[p]);
        dist2[row] = best[p];
        if (lower != nullptr) lower[row] = out[p];
      }
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
