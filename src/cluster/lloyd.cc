#include "cluster/lloyd.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "cluster/kernels/kernel.h"

namespace pmkm {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The assignment step (the paper's step 2). Every pass scans through
// kernel.AssignMasked and yields, for each point, exactly the
// (assign, dist2) a scan of every point against every centroid would. A
// full pass is that scan: null rows and masks. With pruning on, it keeps
// Hamerly's lower bound l[i] on the distance from point i to every
// centroid other than its own, and skips the k-way scan for points whose
// bounds prove the nearest centroid unchanged. The survivors scan through
// their row list: from kBallMinK to kBallMaxK centroids, each against the
// ring mask of its owner and ring level (the Exponion ball, kernel.h), or
// every centroid when the ball cannot serve it; otherwise against every
// centroid, with no mask.
class Assigner {
 public:
  Assigner(const DistanceKernel& kernel, const WeightedDataset& data,
           size_t k, bool prune)
      : kernel_(kernel),
        points_(data.points().data()),
        n_(data.size()),
        k_(k),
        dim_(data.dim()),
        prune_(prune),
        ball_(prune && k >= kBallMinK && k <= kBallMaxK),
        centroids_(k * dim_) {
    if (!prune_) return;
    lower_.resize(n_);
    drift_.resize(k);
    s_.resize(k);
    rows_.resize(n_);
    if (!ball_) return;
    levels_.resize(n_);
    keys_.resize(n_);
    rank_.resize(n_);
    // One bucket per (owner, level), and a last one for the survivors
    // the ball cannot serve, whose mask holds every centroid.
    rings_.assign(k * kRingLevels + 1, 0);
    rings_.back() = k == 64 ? ~uint64_t{0} : (uint64_t{1} << k) - 1;
    bucket_.resize(k * kRingLevels + 1);
    sorted_rows_.resize(n_);
    sorted_masks_.resize(n_);
  }

  /// Starts a pass against `centroids`. The pass scans every point unless
  /// the bounds left by the previous pass are still valid; then PruneBlock
  /// lowers each bound by the largest centroid drift as it tests it.
  void BeginPass(const Dataset& centroids) {
    const double* c = centroids.data();
    pruned_pass_ = prune_ && bounds_valid_;
    bounds_valid_ = true;
    if (pruned_pass_) {
      kernel_.CentroidDriftAndSeparation(centroids_.data(), c, k_, dim_,
                                         drift_.data(), s_.data(),
                                         ball_ ? rings_.data() : nullptr);
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

  /// True when `centroids` are, bit for bit, the ones the last pass ran
  /// against. Only a pruning Assigner says so: the unpruned loop runs
  /// every pass.
  bool Repeats(const Dataset& centroids) const {
    return prune_ && std::memcmp(centroids.data(), centroids_.data(),
                                 k_ * dim_ * sizeof(double)) == 0;
  }

  /// Fills assign[0, n) and dist2[0, n). assign holds the previous pass's
  /// assignments on entry.
  void Pass(uint32_t* assign, double* dist2) {
    if (!pruned_pass_) {
      kernel_.AssignMasked(points_, n_, dim_, centroids_.data(), k_, nullptr,
                           nullptr, assign, dist2,
                           prune_ ? lower_.data() : nullptr);
      return;
    }
    // The bound test over the whole pass first; its exactness argument
    // is in kernels/scalar.cc.
    const size_t m = kernel_.PruneBlock(
        points_, n_, dim_, centroids_.data(), assign, s_.data(), shift_,
        lower_.data(), dist2, rows_.data(), ball_ ? levels_.data() : nullptr);
    counts_.pruned_points += n_;
    counts_.survivors += m;
    if (m == 0) return;
    if (ball_) {
      GroupByRing(m, assign);
      kernel_.AssignMasked(points_, m, dim_, centroids_.data(), k_,
                           sorted_rows_.data(), sorted_masks_.data(), assign,
                           dist2, lower_.data());
      return;
    }
    counts_.survivor_distances += m * k_;
    kernel_.AssignMasked(points_, m, dim_, centroids_.data(), k_,
                         rows_.data(), nullptr, assign, dist2, lower_.data());
  }

  const LloydCounters& counts() const { return counts_; }

 private:
  // A stable counting sort of the m survivors in rows_ by (owner, ring
  // level) into sorted_rows_, each with its mask beside it; the ones the
  // ball cannot serve (kNoRing) go last, in row order. Each survivor's
  // rank within its bucket is taken while counting, so the placement
  // loop reads the buckets without updating them.
  void GroupByRing(size_t m, const uint32_t* assign) {
    const uint16_t no_ring = static_cast<uint16_t>(k_ * kRingLevels);
    std::fill(bucket_.begin(), bucket_.end(), 0);
    for (size_t g = 0; g < m; ++g) {
      const uint8_t level = levels_[g];
      const uint16_t key =
          level == kNoRing
              ? no_ring
              : static_cast<uint16_t>(assign[rows_[g]] * kRingLevels + level);
      keys_[g] = key;
      rank_[g] = bucket_[key]++;
    }
    uint32_t start = 0;
    for (size_t key = 0; key <= no_ring; ++key) {
      const uint32_t count = bucket_[key];
      counts_.survivor_distances +=
          uint64_t{count} * static_cast<uint64_t>(std::popcount(rings_[key]));
      bucket_[key] = start;
      start += count;
    }
    for (size_t g = 0; g < m; ++g) {
      const uint32_t pos = bucket_[keys_[g]] + rank_[g];
      sorted_rows_[pos] = rows_[g];
      sorted_masks_[pos] = rings_[keys_[g]];
    }
  }

  const DistanceKernel& kernel_;
  const double* points_;
  const size_t n_;
  const size_t k_;
  const size_t dim_;
  const bool prune_;
  const bool ball_;
  bool bounds_valid_ = false;
  bool pruned_pass_ = false;
  double shift_ = 0.0;  // this pass's bound decay; 0: no centroid moved
  LloydCounters counts_;
  std::vector<double> lower_;      // l[i], per point
  std::vector<double> centroids_;  // the pass's, which l[] refers to
  std::vector<double> drift_;
  std::vector<double> s_;
  std::vector<uint32_t> rows_;      // the pass's survivors
  // The ball: survivors' ring levels, sort keys and ranks, the ring masks
  // per (owner, level), the counting sort's buckets and its output.
  std::vector<uint8_t> levels_;
  std::vector<uint16_t> keys_;
  std::vector<uint32_t> rank_;
  std::vector<uint64_t> rings_;
  std::vector<uint32_t> bucket_;
  std::vector<uint32_t> sorted_rows_;
  std::vector<uint64_t> sorted_masks_;
};

}  // namespace

Result<ClusteringModel> RunWeightedLloyd(const WeightedDataset& data,
                                         Dataset initial_centroids,
                                         const LloydConfig& config) {
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

  const DistanceKernel& kernel = config.kernel != nullptr
                                     ? *config.kernel
                                     : GetKernel(KernelKind::kAuto);

  ClusteringModel model;
  model.centroids = std::move(initial_centroids);
  model.weights.assign(k, 0.0);

  std::vector<uint32_t> assign(n, 0);
  std::vector<double> dist2(n);
  std::vector<double> sums(k * dim);
  std::vector<double> cluster_weight(k);
  // Farthest assigned point per cluster: the donor pool for re-seeding
  // starved centroids, searched only in a pass that starved one.
  std::vector<double> farthest_dist(k);
  std::vector<size_t> farthest_idx(k);
  Assigner assigner(kernel, data, k, config.accelerate);
  uint64_t empty_repairs = 0;

  double prev_sse = std::numeric_limits<double>::infinity();
  double sse = prev_sse;
  const double* points = data.points().data();
  const double* weights = data.weights().data();

  bool starved = false;   // the last iteration found a starved cluster
  bool repeated = false;  // the loop stopped before a repeated pass
  size_t iter = 0;
  for (iter = 0; iter < config.max_iterations; ++iter) {
    // --- Repeat skip -----------------------------------------------------
    // When the centroids equal, bit for bit, the ones the last pass ran
    // against, this iteration and the final bookkeeping pass are both
    // determined already. A pass returns what a full scan against its
    // centroids returns, a function of the points and those bits only;
    // with no starved cluster last iteration, no repair moved a point
    // or patched a sum after that pass. So this iteration's pass would
    // return the held assign and dist2, its sweep the held sums,
    // weights and SSE (the same operations in the same order), it would
    // starve no cluster, and its centroids would come out unchanged. Its
    // stop test would then read sse − sse ≤ ε, false for a ±inf or NaN
    // SSE; when it holds, the loop would stop in this iteration with
    // converged set, as breaking here does (so iterations comes out the
    // same), and the final pass would return the held arrays once more.
    // Only the pruning Assigner reports a repeat, so the paper's unpruned
    // loop runs its passes as before.
    if (iter > 0 && !starved && sse - sse <= config.epsilon &&
        assigner.Repeats(model.centroids)) {
      model.converged = true;
      repeated = true;
      break;
    }

    // --- Assignment step -------------------------------------------------
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(cluster_weight.begin(), cluster_weight.end(), 0.0);
    assigner.BeginPass(model.centroids);
    assigner.Pass(assign.data(), dist2.data());
    sse = kernel.AccumulateBlock(points, weights, dist2.data(), n, dim,
                                 assign.data(), sums.data(),
                                 cluster_weight.data());

    // --- Empty-cluster repair --------------------------------------------
    // Re-seed each starved centroid to the globally farthest point, then
    // continue iterating (its sum/weight are patched as a singleton).
    bool farthest_found = false;
    starved = false;
    for (size_t j = 0; j < k; ++j) {
      if (cluster_weight[j] > 0.0) continue;
      starved = true;
      // Each cluster's farthest point under this pass's assignment,
      // found before the first repair moves a point.
      if (!farthest_found) {
        farthest_found = true;
        std::fill(farthest_dist.begin(), farthest_dist.end(), -1.0);
        for (size_t i = 0; i < n; ++i) {
          if (dist2[i] > farthest_dist[assign[i]]) {
            farthest_dist[assign[i]] = dist2[i];
            farthest_idx[assign[i]] = i;
          }
        }
      }
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
      ++empty_repairs;
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

  // Final bookkeeping against the final centroids, whose assign and
  // dist2 a repeated pass already holds.
  {
    if (!repeated) {
      assigner.BeginPass(model.centroids);
      assigner.Pass(assign.data(), dist2.data());
    }
    std::fill(model.weights.begin(), model.weights.end(), 0.0);
    double final_sse = 0.0;
    for (size_t i = 0; i < n; ++i) {
      model.weights[assign[i]] += weights[i];
      final_sse += weights[i] * dist2[i];
    }
    model.sse = final_sse;
    const double total_weight = data.TotalWeight();
    model.mse_per_point =
        total_weight > 0.0 ? final_sse / total_weight : 0.0;
  }
  model.iterations = std::min(iter + 1, config.max_iterations);
  if (config.counters != nullptr) {
    *config.counters += assigner.counts();
    config.counters->empty_repairs += empty_repairs;
  }
  return model;
}

}  // namespace pmkm
