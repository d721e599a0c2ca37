// KMeans: the multi-restart k-means used both as the paper's serial
// baseline and, applied per partition, as the clustering inside the partial
// operator. Runs R restarts, each seeded with k random data points
// (cluster/seeding.h), and keeps the representation with minimal error
// (paper §2 / §5.2: "we ran the serial k-means with 10 different sets of
// initial seeds, and selected the representation with the minimum mean
// square error").
//
// Each restart runs the one weighted Lloyd loop (cluster/lloyd.h), whose
// assignment step is bound-pruned by default; lloyd.accelerate = false
// selects the paper's unoptimised full scan with a bitwise-identical
// result.

#ifndef PMKM_CLUSTER_KMEANS_H_
#define PMKM_CLUSTER_KMEANS_H_

#include "cluster/lloyd.h"
#include "common/result.h"

namespace pmkm {

struct KMeansConfig {
  /// Number of clusters (paper: k = 40 for all experiments).
  size_t k = 40;

  /// Restarts with independent random seed sets (paper: R = 10).
  size_t restarts = 10;

  LloydConfig lloyd;

  /// Master seed; restart r of a Fit call uses an independent child stream
  /// so results are reproducible yet restarts are decorrelated.
  uint64_t seed = 1;

  Status Validate() const {
    if (k == 0) return Status::InvalidArgument("k must be >= 1");
    if (restarts == 0) {
      return Status::InvalidArgument("restarts must be >= 1");
    }
    return Status::OK();
  }
};

/// Multi-restart (weighted) k-means.
class KMeans {
 public:
  explicit KMeans(KMeansConfig config) : config_(std::move(config)) {}

  const KMeansConfig& config() const { return config_; }

  /// Clusters an unweighted dataset (the serial baseline). Requires
  /// data.size() >= k.
  Result<ClusteringModel> Fit(const Dataset& data) const {
    return FitWeighted(WeightedDataset::FromUnweighted(data));
  }

  /// Clusters a weighted dataset; the best-of-R model by weighted SSE is
  /// returned.
  Result<ClusteringModel> FitWeighted(const WeightedDataset& data) const;

 private:
  KMeansConfig config_;
};

}  // namespace pmkm

#endif  // PMKM_CLUSTER_KMEANS_H_
