// Online (sequential) k-means, MacQueen 1967: the one-pass incremental
// baseline. Each arriving point moves its nearest centroid by 1/n_j — the
// strictest "one look, O(k) state" competitor in the comparison bench.

#ifndef PMKM_BENCH_LIB_BASELINES_ONLINE_H_
#define PMKM_BENCH_LIB_BASELINES_ONLINE_H_

#include "cluster/model.h"
#include "common/result.h"
#include "common/rng.h"
#include "data/dataset.h"

namespace pmkm {

struct OnlineKMeansConfig {
  size_t k = 40;
  uint64_t seed = 13;
};

/// One-pass sequential k-means over `data`. The first k distinct arrivals
/// become the initial centroids (classic MacQueen initialization); every
/// later point updates its nearest centroid incrementally.
class OnlineKMeans {
 public:
  OnlineKMeans(size_t dim, OnlineKMeansConfig config);

  /// Feeds one point.
  Status Observe(std::span<const double> point);

  /// Feeds a whole dataset in order.
  Status ObserveAll(const Dataset& data);

  size_t points_seen() const { return points_seen_; }

  /// Current model; sse/mse are evaluated against `eval_data` if provided
  /// (pass the original stream for a faithful quality number).
  Result<ClusteringModel> Snapshot(const Dataset* eval_data = nullptr) const;

 private:
  size_t dim_;
  OnlineKMeansConfig config_;
  Dataset centroids_;
  std::vector<double> counts_;
  size_t points_seen_ = 0;
};

}  // namespace pmkm

#endif  // PMKM_BENCH_LIB_BASELINES_ONLINE_H_
