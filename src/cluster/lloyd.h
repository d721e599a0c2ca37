// Weighted Lloyd iteration: the shared fixed-point core of serial k-means
// (unit weights), partial k-means (unit weights) and merge k-means
// (centroid weights). Implements the paper's steps 2-4 exactly:
// assignment by Euclidean distance, weighted centroid recalculation
// µ_j = Σ w_i c_i / Σ w_i, and the convergence criterion
// MSE(n-1) − MSE(n) ≤ ε with ε = 1e-9 (paper §2/§3.3).
//
// This is the only Lloyd loop, and every pass scans through the kernel's
// AssignMasked. Its assignment step is either a full scan of every point
// against all k centroids, or that scan pruned by Hamerly's
// triangle-inequality bounds (Hamerly, SDM'10) — one of the "improvements
// for step 2 that limit the points that have to be re-sorted" the paper
// names but does not use (§2, §4). The points the bounds cannot skip
// scan, from kBallMinK to kBallMaxK centroids, only the centroids inside
// Exponion's ball, and otherwise all k
// (cluster/kernels/kernel.h). The pruned step reproduces every point's
// assignment and squared distance bit for bit, so both produce identical
// models; LloydConfig::accelerate picks one. With pruning on, a fit also
// stops before a pass that would repeat the previous one bit for bit,
// skipping that iteration and the final pass, whose results it already
// holds (the argument is next to the loop in lloyd.cc); the model is
// the one the unpruned loop reaches by running them. A fit adds what its
// pruned passes and repairs did to LloydConfig::counters (LloydCounters,
// obs/stats.h).

#ifndef PMKM_CLUSTER_LLOYD_H_
#define PMKM_CLUSTER_LLOYD_H_

#include <cstdint>

#include "cluster/model.h"
#include "common/result.h"
#include "data/weighted.h"
#include "obs/stats.h"  // LloydCounters

namespace pmkm {

class DistanceKernel;

/// Parameters of one Lloyd run (seed selection happens outside).
struct LloydConfig {
  /// Convergence: stop when E(n-1) − E(n) ≤ epsilon (E is the weighted SSE,
  /// the paper's "MSE").
  double epsilon = 1e-9;

  /// Hard iteration cap. The paper reports I growing with N; 300 is far
  /// above every converged run in our sweeps and bounds pathological
  /// oscillation.
  size_t max_iterations = 300;

  /// Distance kernel for the assignment hot path; nullptr means the best
  /// one the host supports (GetKernel(KernelKind::kAuto)).
  /// Assignments are bit-identical across kernels, so this only affects
  /// speed.
  const DistanceKernel* kernel = nullptr;

  /// Prune the assignment step with Hamerly's bounds, and skip the
  /// passes that would repeat the previous one. Exact: the model is
  /// bitwise identical either way, so this too only affects speed. false
  /// is the paper's unoptimised configuration (§4: "we do not exploit
  /// many optimizations such as improved search mechanism for finding the
  /// nearest centroid"), kept for timing the T2/F6 reproduction: it runs
  /// every pass.
  bool accelerate = true;

  /// When non-null, each fit adds its counts here on success. Not
  /// synchronized: the owner runs its fits on one thread. A stream
  /// operator points it at its own OperatorStats::lloyd.
  LloydCounters* counters = nullptr;
};

/// Runs weighted Lloyd from the given initial centroids until convergence.
///
/// Empty-cluster policy (documented deviation, DESIGN.md §4): a centroid
/// that attracts no weight is re-seeded to the in-cluster point currently
/// farthest from its centroid, keeping k constant as the paper's
/// formulation requires ("k disjoint non-empty subsets").
///
/// Deterministic: it draws no random number, so the same data, seeds and
/// config give the same model bytes. Fails if `data` is empty,
/// dimensionalities mismatch, or k = 0.
Result<ClusteringModel> RunWeightedLloyd(const WeightedDataset& data,
                                         Dataset initial_centroids,
                                         const LloydConfig& config);

}  // namespace pmkm

#endif  // PMKM_CLUSTER_LLOYD_H_
