// Distance-kernel layer: vectorized primitives behind every assignment hot
// path (the paper's "SortDataPoint" step, where serial, partial and merge
// k-means all spend their time).
//
// Design (DESIGN.md §10):
//  - One scalar reference kernel plus a runtime-dispatched AVX2 variant
//    on x86-64; every other host runs the scalar kernel. The
//    implementation is chosen once per process via CPUID, overridable
//    with --kernel.
//  - Layout contract: one centroid layout, row-major k×dim, which every
//    primitive reads. The AVX2 kernel puts what it sweeps in lanes: the
//    nearest-centroid scan 8 points per step and the pair distances 4
//    owner centroids per step, one per lane, so each lane accumulates its
//    distance in strict coordinate order against a broadcast centroid
//    row.
//  - Four primitives (PruneBlock, AssignMasked, AccumulateBlock and
//    CentroidDriftAndSeparation) and one nearest-two scan: AssignBlock is
//    a non-virtual shim that runs AssignMasked over every point and every
//    centroid.
//  - Determinism guarantee: every kernel computes bit-identical squared
//    distances (same per-pair operation order, no FMA contraction in the
//    accumulation) and returns what the scalar ascending-index scan
//    returns — strictly smaller distance wins, ties break toward the
//    lower centroid index, NaN distances never win or become second. How
//    a kernel gets there is its own business: the AVX2 kernel keeps a
//    branch-free min/second/index state per lane (kernels/avx2.cc shows
//    why that equals the scan). Assignments, and therefore centroids, are
//    bitwise identical across scalar and AVX2. The pruned Lloyd
//    assignment (cluster/lloyd.cc) relies on this: PruneBlock computes a
//    skipped point's distance to its own centroid in the same per-lane
//    operation order, and AssignMasked scans the survivors through their
//    row list, each against a ring mask or, with no mask, against every
//    centroid.
//  - The Exponion ball (DESIGN.md §10): from kBallMinK centroids on, a
//    pruned pass scans each survivor against only the centroids of one
//    ring mask — the centroids whose distance from the survivor's own
//    centroid c_a falls at or below the survivor's ring level — through
//    AssignMasked. PruneBlock emits the survivor's level and
//    CentroidDriftAndSeparation the masks; both quantize a distance with
//    the one monotone RingLevel below, so a mask is a superset of the
//    ball B(c_a, 2u + 2s_a) that holds the nearest and second-nearest
//    centroids. AssignMasked scans a mask in ascending index with a
//    strict <, so it returns the full scan's assign, dist2 and second2
//    bit for bit (kernels/scalar.cc has the argument). Below kBallMinK
//    and above kBallMaxK the survivors take AssignMasked with no mask,
//    and the kNoRing ones a mask of all k: every centroid, which is the
//    full scan itself.

#ifndef PMKM_CLUSTER_KERNELS_KERNEL_H_
#define PMKM_CLUSTER_KERNELS_KERNEL_H_

#include <algorithm>
#include <bit>
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

/// The ring levels of the Exponion ball. A squared distance r² from c_a
/// gets the level of r² relative to s[a]²: the top 13 bits of r²'s IEEE
/// pattern (exponent and one mantissa bit, so a level spans a factor of
/// about 2^¼ in r) minus those of s[a]·s[a], minus 8 so that r = 4·s[a]
/// — the smallest ball radius a survivor can have — is level 0, clamped
/// to [0, kRingLevels). For non-negative doubles the bit pattern orders
/// like the value, so the level is monotone in r² for a fixed s[a]:
/// r² ≤ R² implies level(r²) ≤ level(R²). The top level, R ≳ 14·s[a],
/// holds every centroid; on the paper cell no survivor got past level 6.
/// Levels are stored per survivor as one byte; kNoRing marks a survivor
/// the ball cannot serve (its R or s[a] outside the bound range).
inline constexpr size_t kRingLevels = 8;
inline constexpr uint8_t kNoRing = 0xff;
/// A survivor's ball radius is R = (√dist2 + s[a])·kRingGrow: twice the
/// 2u + 2s_a of the argument, inflated by δ.
inline constexpr double kRingGrow = 2.0 * (1.0 + kPruneSlack);
/// The ball engages from this many centroids up to 64 (one mask word).
/// Below it the ring build and the grouping eat what the ball saves: at
/// k = 8 to 16 the two paths measured even (EXPERIMENTS L5).
inline constexpr size_t kBallMinK = 20;
inline constexpr size_t kBallMaxK = 64;

inline uint8_t RingLevel(double r2, double s_a) {
  const int64_t level =
      static_cast<int64_t>(std::bit_cast<uint64_t>(r2) >> 51) -
      static_cast<int64_t>(std::bit_cast<uint64_t>(s_a * s_a) >> 51) - 8;
  return static_cast<uint8_t>(std::clamp<int64_t>(
      level, 0, static_cast<int64_t>(kRingLevels) - 1));
}

/// A row-major copy of k×dim centroids: AssignBlock's argument.
/// Reusable across iterations — Load() only reallocates when the shape
/// grows.
class CentroidBlock {
 public:
  void Load(const double* centroids, size_t k, size_t dim);
  void Load(const Dataset& centroids) {
    Load(centroids.data(), centroids.size(), centroids.dim());
  }

  size_t k() const { return k_; }
  size_t dim() const { return dim_; }
  const double* row_major() const { return row_major_.data(); }

 private:
  std::vector<double> row_major_;
  size_t k_ = 0;
  size_t dim_ = 0;
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
  /// squared distance. A shim over AssignMasked with null rows, masks and
  /// `lower`, so every kernel runs it as its one scan.
  void AssignBlock(const double* points, size_t n, size_t dim,
                   const CentroidBlock& centroids, uint32_t* assign,
                   double* dist2) const PMKM_WAITFREE PMKM_DETERMINISTIC;

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
  /// order, and m is returned; `rows` must hold n entries. `levels`, when
  /// non-null, also holds n entries and receives each survivor's ring
  /// level beside its row: levels[g] = RingLevel(R·R, s[a]) with
  /// R = (√dist2 + s[a])·kRingGrow, or kNoRing unless both s[a] and R lie
  /// strictly between kPruneMinBound and kPruneMaxBound.
  virtual size_t PruneBlock(const double* points, size_t n, size_t dim,
                            const double* centroids, const uint32_t* assign,
                            const double* s, double shift, double* lower,
                            double* dist2, uint32_t* rows,
                            uint8_t* levels = nullptr) const
      PMKM_WAITFREE PMKM_DETERMINISTIC = 0;

  /// The nearest-two scan of a Lloyd pass. For each p < n, the point at
  /// points + r·dim, with r = rows[p] or, when `rows` is null, r = p, is
  /// scanned against the centroids whose bits are set in masks[p] or,
  /// when `masks` is null, against every centroid j < k, in ascending
  /// index, and the results are written in place: assign[r] gets the
  /// nearest (ties to the lower index; 0 when no distance is below
  /// +inf), dist2[r] its squared distance, and lower[r], when `lower` is
  /// non-null, √second2·(1 − δ) with second2 the second-smallest squared
  /// distance scanned. `centroids` is row-major k×dim, so a mask bit must
  /// index one of the first min(k, 64) rows. With no mask, or with a mask
  /// holding a point's nearest and second-nearest centroids, the outputs
  /// are the full scan's bit for bit.
  virtual void AssignMasked(const double* points, size_t n, size_t dim,
                            const double* centroids, size_t k,
                            const uint32_t* rows, const uint64_t* masks,
                            uint32_t* assign, double* dist2,
                            double* lower) const
      PMKM_WAITFREE PMKM_DETERMINISTIC = 0;

  /// The centroid update's weighted-sum scatter, and the pass's weighted
  /// SSE in the same sweep: for each point i in ascending order,
  /// sums[assign[i]*dim + d] += w_i * x_i[d],
  /// cluster_weight[assign[i]] += w_i and sse += w_i * dist2[i], each a
  /// multiply and then an add. Returns sse, starting from +0.0 (so n = 0
  /// returns +0.0). `weights` and `dist2` hold n entries each; unit
  /// weights are an array of ones.
  virtual double AccumulateBlock(const double* points, const double* weights,
                                 const double* dist2, size_t n, size_t dim,
                                 const uint32_t* assign, double* sums,
                                 double* cluster_weight) const PMKM_WAITFREE
      PMKM_DETERMINISTIC = 0;

  /// The two per-centroid arrays Hamerly's bounds need:
  /// drift[j] = ‖old_j − new_j‖ and s[j] = ½·min_{j2≠j} ‖new_j − new_j2‖,
  /// from row-major k×dim old and new centroids. drift may be null (skip
  /// it, e.g. on the first iteration). `rings`, when non-null, requires
  /// k ≤ kBallMaxK and receives the ball's ring masks, kRingLevels words
  /// per centroid: bit j of rings[a·kRingLevels + L] is set iff
  /// RingLevel(‖new_a − new_j‖², s[a]) ≤ L, so j = a is in every mask.
  /// An owner whose s[a] lies outside (kPruneMinBound, kPruneMaxBound)
  /// gets all k bits at every level.
  virtual void CentroidDriftAndSeparation(const double* old_centroids,
                                          const double* new_centroids,
                                          size_t k, size_t dim,
                                          double* drift, double* s,
                                          uint64_t* rings = nullptr) const = 0;
};

/// Returns the kernel for `kind`; kAuto resolves to the best implementation
/// this host supports. CHECK-fails for a kind the host cannot run (callers
/// gate with KernelAvailable; the --kernel flag path reports a Status).
const DistanceKernel& GetKernel(KernelKind kind);

/// True when `kind` can execute on this host (kAuto and kScalar always).
bool KernelAvailable(KernelKind kind);

/// The nearest centroid of each of the n row-major `points`, computed by
/// GetKernel(KernelKind::kAuto).AssignMasked against every centroid: the
/// batch query behind every metric, histogram and baseline outside the
/// Lloyd loop. Every kernel returns the same assignments and distances,
/// so they are the ones training saw under any kernel. Requires a
/// non-empty centroid set of dimension `dim`.
void AssignNearest(const double* points, size_t n, size_t dim,
                   const Dataset& centroids, uint32_t* assign,
                   double* dist2);

/// Short host-ISA description for bench provenance, e.g.
/// "x86-64 (avx2+fma)" or "aarch64".
std::string HostIsaDescription();

}  // namespace pmkm

#endif  // PMKM_CLUSTER_KERNELS_KERNEL_H_
