#include "cluster/lloyd.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cluster/kernels/kernel.h"

namespace pmkm {

namespace {

/// Points per AssignBlock call: large enough to amortize the virtual call,
/// small enough that assign/dist2 scratch stays in L1/L2.
constexpr size_t kAssignTile = 256;

constexpr double kInf = std::numeric_limits<double>::infinity();

// The assignment step (the paper's step 2). Every pass yields, for each
// point, exactly the (assign, dist2) a full kernel.AssignBlock scan would.
// With pruning on, it keeps Hamerly's lower bound l[i] on the distance from
// point i to every centroid other than its own, and skips the k-way scan
// for points whose bounds prove the nearest centroid unchanged.
class Assigner {
 public:
  Assigner(const DistanceKernel& kernel, const WeightedDataset& data,
           size_t k, bool prune)
      : kernel_(kernel),
        points_(data.points().data()),
        k_(k),
        dim_(data.dim()),
        prune_(prune) {
    if (!prune_) return;
    const size_t tile_cap = std::min(data.size(), kAssignTile);
    lower_.resize(data.size());
    centroids_.resize(k * dim_);
    drift_.resize(k);
    s_.resize(k);
    second2_.resize(tile_cap);
    rows_.resize(tile_cap);
    scan_assign_.resize(tile_cap);
    scan_dist2_.resize(tile_cap);
  }

  /// Starts a pass against `centroids`. The pass scans every point unless
  /// the bounds left by the previous pass are still valid; then PruneBlock
  /// lowers each bound by the largest centroid drift as it tests it.
  void BeginPass(const Dataset& centroids) {
    block_.Load(centroids);
    if (!prune_) return;
    const double* c = centroids.data();
    pruned_pass_ = bounds_valid_;
    bounds_valid_ = true;
    if (pruned_pass_) {
      kernel_.CentroidDriftAndSeparation(centroids_.data(), c, block_, k_,
                                         dim_, drift_.data(), s_.data());
      double max_drift = 0.0;
      for (double d : drift_) {
        max_drift = std::isnan(d) ? kInf : std::max(max_drift, d);
      }
      shift_ = max_drift > 0.0 ? max_drift * (1.0 + kPruneSlack) : 0.0;
    }
    std::copy(c, c + k_ * dim_, centroids_.begin());
  }

  /// Forces the next pass to scan every point: a repair reassigned a
  /// point outside the assignment step, and a rescan is simpler than
  /// arguing its bound still holds.
  void Invalidate() { bounds_valid_ = false; }

  /// Fills assign[i0, i0 + tile) and dist2[0, tile). assign holds the
  /// previous pass's assignments on entry.
  void AssignTile(size_t i0, size_t tile, uint32_t* assign, double* dist2) {
    const double* points = points_ + i0 * dim_;
    double* lower = lower_.data() + i0;
    if (!pruned_pass_) {
      kernel_.AssignBlock(points, tile, dim_, block_, assign + i0, dist2,
                          prune_ ? second2_.data() : nullptr);
      if (prune_) {
        for (size_t t = 0; t < tile; ++t) {
          lower[t] = std::sqrt(second2_[t]) * (1.0 - kPruneSlack);
        }
      }
      return;
    }
    // The points PruneBlock cannot prove stable are scanned in place,
    // through their row list; its exactness argument is in
    // kernels/scalar.cc.
    const size_t m = kernel_.PruneBlock(points, tile, dim_,
                                        centroids_.data(), assign + i0,
                                        s_.data(), shift_, lower, dist2,
                                        rows_.data());
    if (m == 0) return;
    kernel_.AssignBlock(points, m, dim_, block_, scan_assign_.data(),
                        scan_dist2_.data(), second2_.data(), rows_.data());
    for (size_t g = 0; g < m; ++g) {
      const size_t t = rows_[g];
      assign[i0 + t] = scan_assign_[g];
      dist2[t] = scan_dist2_[g];
      lower[t] = std::sqrt(second2_[g]) * (1.0 - kPruneSlack);
    }
  }

 private:
  const DistanceKernel& kernel_;
  const double* points_;
  const size_t k_;
  const size_t dim_;
  const bool prune_;
  bool bounds_valid_ = false;
  bool pruned_pass_ = false;
  double shift_ = 0.0;  // this pass's bound decay; 0: no centroid moved
  CentroidBlock block_;
  std::vector<double> lower_;      // l[i], per point
  std::vector<double> centroids_;  // the centroids l[] refers to
  std::vector<double> drift_;
  std::vector<double> s_;
  std::vector<double> second2_;
  // A tile's points that need the scan, and the scan's packed results.
  std::vector<uint32_t> rows_;
  std::vector<uint32_t> scan_assign_;
  std::vector<double> scan_dist2_;
};

}  // namespace

Result<ClusteringModel> RunWeightedLloyd(const WeightedDataset& data,
                                         Dataset initial_centroids,
                                         const LloydConfig& config,
                                         Rng* rng) {
  const size_t n = data.size();
  const size_t k = initial_centroids.size();
  const size_t dim = data.dim();
  if (n == 0) return Status::InvalidArgument("empty dataset");
  if (k == 0) return Status::InvalidArgument("no initial centroids");
  if (initial_centroids.dim() != dim) {
    return Status::InvalidArgument("centroid/data dimensionality mismatch");
  }
  if (config.epsilon < 0.0) {
    return Status::InvalidArgument("epsilon must be non-negative");
  }
  PMKM_CHECK(rng != nullptr);

  const DistanceKernel& kernel = config.kernel != nullptr
                                     ? *config.kernel
                                     : GetKernel(KernelKind::kAuto);

  ClusteringModel model;
  model.centroids = std::move(initial_centroids);
  model.weights.assign(k, 0.0);

  std::vector<uint32_t> assign(n, 0);
  std::vector<double> dist2(std::min(n, kAssignTile));
  std::vector<double> sums(k * dim);
  std::vector<double> cluster_weight(k);
  // Farthest assigned point per cluster: the donor pool for re-seeding
  // starved centroids.
  std::vector<double> farthest_dist(k);
  std::vector<size_t> farthest_idx(k);
  Assigner assigner(kernel, data, k, config.accelerate);

  double prev_sse = std::numeric_limits<double>::infinity();
  double sse = prev_sse;
  const double* points = data.points().data();
  const double* weights = data.weights().data();

  size_t iter = 0;
  for (iter = 0; iter < config.max_iterations; ++iter) {
    // --- Assignment step -------------------------------------------------
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(cluster_weight.begin(), cluster_weight.end(), 0.0);
    std::fill(farthest_dist.begin(), farthest_dist.end(), -1.0);
    assigner.BeginPass(model.centroids);
    sse = 0.0;
    for (size_t i0 = 0; i0 < n; i0 += kAssignTile) {
      const size_t tile = std::min(kAssignTile, n - i0);
      assigner.AssignTile(i0, tile, assign.data(), dist2.data());
      for (size_t t = 0; t < tile; ++t) {
        const size_t i = i0 + t;
        const size_t j = assign[i];
        sse += weights[i] * dist2[t];
        if (dist2[t] > farthest_dist[j]) {
          farthest_dist[j] = dist2[t];
          farthest_idx[j] = i;
        }
      }
    }
    kernel.AccumulateBlock(points, weights, n, dim, assign.data(),
                           sums.data(), cluster_weight.data());

    // --- Empty-cluster repair --------------------------------------------
    // Re-seed each starved centroid to the globally farthest point, then
    // continue iterating (its sum/weight are patched as a singleton).
    for (size_t j = 0; j < k; ++j) {
      if (cluster_weight[j] > 0.0) continue;
      // Donor: cluster with the largest farthest-point distance.
      size_t donor = k;
      double best = -1.0;
      for (size_t c = 0; c < k; ++c) {
        if (cluster_weight[c] > 0.0 && farthest_dist[c] > best) {
          best = farthest_dist[c];
          donor = c;
        }
      }
      if (donor == k || best <= 0.0) {
        // All points coincide with their centroids (fewer distinct points
        // than k). Leave the centroid where it is with zero weight.
        continue;
      }
      const size_t i = farthest_idx[donor];
      const double* x = points + i * dim;
      const double w = data.weight(i);
      // Move the donor point's mass from its cluster to j.
      double* donor_sum = sums.data() + donor * dim;
      double* new_sum = sums.data() + j * dim;
      for (size_t d = 0; d < dim; ++d) {
        donor_sum[d] -= w * x[d];
        new_sum[d] = w * x[d];
      }
      cluster_weight[donor] -= w;
      cluster_weight[j] = w;
      assign[i] = static_cast<uint32_t>(j);
      assigner.Invalidate();
      sse -= w * farthest_dist[donor];
      farthest_dist[donor] = 0.0;  // donor no longer eligible this round
    }

    // --- Centroid recalculation ------------------------------------------
    for (size_t j = 0; j < k; ++j) {
      if (cluster_weight[j] <= 0.0) continue;  // unrecoverable starvation
      double* c = model.centroids.mutable_data() + j * dim;
      const double* sum = sums.data() + j * dim;
      const double inv = 1.0 / cluster_weight[j];
      for (size_t d = 0; d < dim; ++d) c[d] = sum[d] * inv;
    }

    // --- Convergence -----------------------------------------------------
    // The paper's criterion compares the error of consecutive clustering
    // iterations; sse here is the error of the *pre-update* centroids, so
    // the first comparison happens at iter >= 1.
    if (iter > 0 && prev_sse - sse <= config.epsilon) {
      model.converged = true;
      break;
    }
    prev_sse = sse;
  }

  // Final bookkeeping against the final centroids.
  {
    assigner.BeginPass(model.centroids);
    std::fill(model.weights.begin(), model.weights.end(), 0.0);
    double final_sse = 0.0;
    for (size_t i0 = 0; i0 < n; i0 += kAssignTile) {
      const size_t tile = std::min(kAssignTile, n - i0);
      assigner.AssignTile(i0, tile, assign.data(), dist2.data());
      for (size_t t = 0; t < tile; ++t) {
        const size_t i = i0 + t;
        model.weights[assign[i]] += weights[i];
        final_sse += weights[i] * dist2[t];
      }
    }
    model.sse = final_sse;
    const double total_weight = data.TotalWeight();
    model.mse_per_point =
        total_weight > 0.0 ? final_sse / total_weight : 0.0;
  }
  model.iterations = std::min(iter + 1, config.max_iterations);
  if (config.track_assignments) model.assignments = std::move(assign);
  return model;
}

}  // namespace pmkm
