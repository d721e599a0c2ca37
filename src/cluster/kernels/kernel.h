// Distance-kernel layer: vectorized primitives behind every assignment hot
// path (the paper's "SortDataPoint" step, where serial, partial and merge
// k-means all spend their time).
//
// Design (DESIGN.md §10):
//  - One scalar reference kernel plus a runtime-dispatched AVX2 variant
//    on x86-64; every other host runs the scalar kernel. The
//    implementation is chosen once per process via CPUID, overridable
//    with --kernel.
//  - Layout contract: centroids are repacked *transposed and padded*
//    (CentroidBlock): coordinate d of all centroids is contiguous, k padded
//    to a lane multiple with +inf coordinates, so SIMD lanes sweep
//    centroids with aligned contiguous loads while each lane accumulates
//    its (point, centroid) distance in strict coordinate order.
//  - Determinism guarantee: every kernel computes bit-identical squared
//    distances (same per-pair operation order, no FMA contraction in the
//    accumulation) and returns what the scalar ascending-index scan
//    returns — strictly smaller distance wins, ties break toward the
//    lower centroid index, NaN distances never win or become second. How
//    a kernel gets there is its own business: the AVX2 kernel computes a
//    register block of 4 points × 8 centroids into a stack scratch, then
//    reduces it with a branch-free per-lane min/second/index update and a
//    permute-based cross-lane reduction (kernels/avx2.cc shows why that
//    equals the scan). Assignments, and therefore centroids, are bitwise
//    identical across scalar and AVX2. The pruned Lloyd assignment
//    (cluster/lloyd.cc) relies on this: PruneBlock computes a skipped
//    point's distance to its own centroid in the same per-lane operation
//    order, and AssignBlock scans the survivors through their row list.

#ifndef PMKM_CLUSTER_KERNELS_KERNEL_H_
#define PMKM_CLUSTER_KERNELS_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/result.h"
#include "data/dataset.h"

namespace pmkm {

/// Which distance-kernel implementation to use.
enum class KernelKind {
  kAuto,    // best implementation the host supports (CPUID probe)
  kScalar,  // portable reference
  kAvx2,    // x86-64 AVX2 (compiled with FMA enabled, contraction off)
};

const char* KernelKindToString(KernelKind kind);

/// Parses "auto" | "scalar" | "avx2" (the --kernel flag values).
Result<KernelKind> ParseKernelKind(const std::string& name);

/// The bound arithmetic of the pruned Lloyd pass, shared by PruneBlock
/// and the bound refresh in cluster/lloyd.cc: the relative slack δ that
/// absorbs rounding, and the open range a bound must lie in to be used
/// (kernels/scalar.cc states the exactness argument).
inline constexpr double kPruneSlack = 1e-9;
inline constexpr double kPruneMinBound = 1e-100;
inline constexpr double kPruneMaxBound = 1e100;

/// Centroids repacked for the kernels: transposed (coordinate-major) and
/// padded to a lane multiple. Element (j, d) lives at
/// transposed()[d * padded_k() + j]; padding columns j >= k() hold +inf so
/// a padded lane can never win an argmin. Reusable across iterations —
/// Load() only reallocates when the shape grows.
class CentroidBlock {
 public:
  /// Pad k to a multiple of 8: the AVX2 kernel's 8-centroid register
  /// block (two 4-wide vectors).
  static constexpr size_t kLanePad = 8;

  void Load(const double* centroids, size_t k, size_t dim);
  void Load(const Dataset& centroids) {
    Load(centroids.data(), centroids.size(), centroids.dim());
  }

  size_t k() const { return k_; }
  size_t dim() const { return dim_; }
  size_t padded_k() const { return padded_k_; }
  const double* transposed() const { return transposed_.data(); }

 private:
  std::vector<double> transposed_;
  size_t k_ = 0;
  size_t dim_ = 0;
  size_t padded_k_ = 0;
};

/// One distance-kernel implementation. Stateless and thread-safe: cloned
/// stream operators share one instance.
class DistanceKernel {
 public:
  virtual ~DistanceKernel() = default;

  /// "scalar" | "avx2" — surfaced in OperatorStats and EXPLAIN.
  virtual const char* name() const = 0;
  virtual KernelKind kind() const = 0;

  /// Assignment for a tile: for each of the n row-major points, the index
  /// of the nearest centroid (ties to the lower index) and its exact
  /// squared distance. `second2`, when non-null, additionally receives the
  /// second-smallest squared distance (the Hamerly lower bound). `rows`,
  /// when non-null, selects the points: output p is for the point at
  /// points + rows[p]·dim.
  virtual void AssignBlock(const double* points, size_t n, size_t dim,
                           const CentroidBlock& centroids, uint32_t* assign,
                           double* dist2, double* second2 = nullptr,
                           const uint32_t* rows = nullptr) const
      PMKM_WAITFREE PMKM_DETERMINISTIC = 0;

  /// The bound test of a pruned Lloyd pass over a tile of n row-major
  /// points. `centroids` is row-major k×dim, assign[t] is point t's
  /// current centroid a, s[a] is half the distance from c_a to its
  /// nearest other centroid, and lower[t] bounds from below the point's
  /// distance to every other centroid. Per point: when shift > 0 the
  /// bound decays to l = (lower[t] − shift)·(1 − δ) and is written back;
  /// dist2[t] = ‖x − c_a‖² in the per-lane operation order; and the
  /// point is pruned iff b = max(s[a], l)·(1 − δ) lies strictly between
  /// kPruneMinBound and kPruneMaxBound and √dist2[t]·(1 + δ) < b. The
  /// tile indices of the points not pruned go to rows[0, m) in ascending
  /// order, and m is returned; `rows` must hold n entries.
  virtual size_t PruneBlock(const double* points, size_t n, size_t dim,
                            const double* centroids, const uint32_t* assign,
                            const double* s, double shift, double* lower,
                            double* dist2, uint32_t* rows) const
      PMKM_WAITFREE PMKM_DETERMINISTIC = 0;

  /// Weighted-sum scatter for a tile: for each point i,
  /// sums[assign[i]*dim + d] += w_i * x_i[d] and
  /// cluster_weight[assign[i]] += w_i, in ascending i order. `weights` may
  /// be null (unit weights).
  virtual void AccumulateBlock(const double* points, const double* weights,
                               size_t n, size_t dim, const uint32_t* assign,
                               double* sums,
                               double* cluster_weight) const PMKM_WAITFREE
      PMKM_DETERMINISTIC = 0;

  /// The two per-centroid arrays Hamerly's bounds need:
  /// drift[j] = ‖old_j − new_j‖ and s[j] = ½·min_{j2≠j} ‖new_j − new_j2‖.
  /// `block` must hold the *new* centroids. drift may be null (skip it,
  /// e.g. on the first iteration).
  virtual void CentroidDriftAndSeparation(const double* old_centroids,
                                          const double* new_centroids,
                                          const CentroidBlock& block,
                                          size_t k, size_t dim,
                                          double* drift,
                                          double* s) const = 0;
};

/// Returns the kernel for `kind`; kAuto resolves to the best implementation
/// this host supports. CHECK-fails for a kind the host cannot run (callers
/// gate with KernelAvailable; the --kernel flag path reports a Status).
const DistanceKernel& GetKernel(KernelKind kind);

/// True when `kind` can execute on this host (kAuto and kScalar always).
bool KernelAvailable(KernelKind kind);

/// The nearest centroid of each of the n row-major `points`, computed by
/// GetKernel(KernelKind::kAuto).AssignBlock: the batch query behind every
/// metric, histogram and baseline outside the Lloyd loop. Every kernel
/// returns the same assignments and distances, so they are the ones
/// training saw under any kernel. `second2` as in AssignBlock.
/// Requires a non-empty centroid set of dimension `dim`.
void AssignNearest(const double* points, size_t n, size_t dim,
                   const Dataset& centroids, uint32_t* assign,
                   double* dist2, double* second2 = nullptr);

/// Short host-ISA description for bench provenance, e.g.
/// "x86-64 (avx2+fma)" or "aarch64".
std::string HostIsaDescription();

}  // namespace pmkm

#endif  // PMKM_CLUSTER_KERNELS_KERNEL_H_
