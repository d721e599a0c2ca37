// NEON distance kernel (aarch64, where NEON is baseline — no runtime
// probe needed). Mirrors the AVX2 kernel with 2-wide float64x2 lanes; see
// kernels/avx2.cc for the determinism rules both must follow to stay
// bit-identical to the scalar reference.

#include "cluster/kernels/internal.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cmath>
#include <limits>

namespace pmkm {
namespace kernels {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

inline float64x2_t Distance2(const double* x, const double* ct, size_t kp,
                             size_t dim, size_t j0) {
  float64x2_t acc = vdupq_n_f64(0.0);
  for (size_t d = 0; d < dim; ++d) {
    const float64x2_t xd = vdupq_n_f64(x[d]);
    const float64x2_t c = vld1q_f64(ct + d * kp + j0);
    const float64x2_t diff = vsubq_f64(xd, c);
    // mul + add (not vfma): bitwise-equal to the scalar kernel.
    acc = vaddq_f64(acc, vmulq_f64(diff, diff));
  }
  return acc;
}

}  // namespace

// External linkage on purpose: these member functions are the
// assignment hot path, and the sampling profiler's dladdr
// symbolization only resolves dynamic-table symbols — an
// anonymous-namespace kernel shows up as hex addresses in
// /pprofz and folded-stack output.
class NeonDistanceKernel final : public DistanceKernel {
 public:
  const char* name() const override { return "neon"; }
  KernelKind kind() const override { return KernelKind::kNeon; }

  void AssignBlock(const double* points, size_t n, size_t dim,
                   const CentroidBlock& centroids, uint32_t* assign,
                   double* dist2, double* second2,
                   const uint32_t* rows) const override {
    const size_t k = centroids.k();
    const size_t kp = centroids.padded_k();
    const double* ct = centroids.transposed();
    PMKM_DCHECK(k > 0 && centroids.dim() == dim && kp % 2 == 0);

    const int64_t init_j[2] = {0, 1};
    for (size_t i = 0; i < n; ++i) {
      const double* x = points + (rows != nullptr ? rows[i] : i) * dim;
      float64x2_t best_d = vdupq_n_f64(kInf);
      float64x2_t second_d = vdupq_n_f64(kInf);
      int64x2_t best_j = vld1q_s64(init_j);
      int64x2_t j_vec = best_j;
      const int64x2_t step = vdupq_n_s64(2);
      for (size_t j0 = 0; j0 < kp; j0 += 2) {
        const float64x2_t d2 = Distance2(x, ct, kp, dim, j0);
        const uint64x2_t lt_best = vcltq_f64(d2, best_d);
        const uint64x2_t lt_second = vcltq_f64(d2, second_d);
        const float64x2_t min_second = vbslq_f64(lt_second, d2, second_d);
        second_d = vbslq_f64(lt_best, best_d, min_second);
        best_d = vbslq_f64(lt_best, d2, best_d);
        best_j = vbslq_s64(lt_best, j_vec, best_j);
        j_vec = vaddq_s64(j_vec, step);
      }

      double bd[2], sd[2];
      int64_t bj[2];
      vst1q_f64(bd, best_d);
      vst1q_f64(sd, second_d);
      vst1q_s64(bj, best_j);

      int w = 0;
      if (bd[1] < bd[0] || (bd[1] == bd[0] && bj[1] < bj[0])) w = 1;
      double d_second = sd[w];
      if (bd[1 - w] < d_second) d_second = bd[1 - w];
      assign[i] = static_cast<uint32_t>(bj[w]);
      dist2[i] = bd[w];
      if (second2 != nullptr) second2[i] = d_second;
    }
  }

  // The shared scalar reference: no NEON code here that the x86-64 parity
  // tests could not reach.
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
      const float64x2_t wv = vdupq_n_f64(w);
      size_t d = 0;
      for (; d + 2 <= dim; d += 2) {
        const float64x2_t xv = vld1q_f64(x + d);
        const float64x2_t sv = vld1q_f64(sum + d);
        vst1q_f64(sum + d, vaddq_f64(sv, vmulq_f64(wv, xv)));
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
    const float64x2_t inf = vdupq_n_f64(kInf);
    const int64_t init_j[2] = {0, 1};
    for (size_t j = 0; j < k; ++j) {
      const double* c = new_centroids + j * dim;
      const int64x2_t self = vdupq_n_s64(static_cast<int64_t>(j));
      int64x2_t j_vec = vld1q_s64(init_j);
      const int64x2_t step = vdupq_n_s64(2);
      float64x2_t nearest = inf;
      for (size_t j0 = 0; j0 < kp; j0 += 2) {
        float64x2_t d2 = Distance2(c, ct, kp, dim, j0);
        const uint64x2_t is_self = vceqq_s64(j_vec, self);
        d2 = vbslq_f64(is_self, inf, d2);
        const uint64x2_t lt = vcltq_f64(d2, nearest);
        nearest = vbslq_f64(lt, d2, nearest);
        j_vec = vaddq_s64(j_vec, step);
      }
      double nd[2];
      vst1q_f64(nd, nearest);
      const double min_sq = nd[1] < nd[0] ? nd[1] : nd[0];
      s[j] = 0.5 * std::sqrt(min_sq);
    }
  }
};


const DistanceKernel* NeonKernel() {
  static const NeonDistanceKernel kernel;
  return &kernel;
}

}  // namespace kernels
}  // namespace pmkm

#else  // !__aarch64__

namespace pmkm {
namespace kernels {

const DistanceKernel* NeonKernel() { return nullptr; }

}  // namespace kernels
}  // namespace pmkm

#endif  // __aarch64__
