#include "cluster/merge.h"

#include <cmath>
#include <string>

namespace pmkm {

Result<ClusteringModel> MergeKMeans::Merge(
    const WeightedDataset& pooled) const {
  if (pooled.empty()) {
    return Status::InvalidArgument("no centroids to merge");
  }
  if (config_.k == 0) return Status::InvalidArgument("k must be >= 1");
  for (size_t i = 0; i < pooled.size(); ++i) {
    const double w = pooled.weight(i);
    if (!std::isfinite(w) || w <= 0.0) {
      return Status::InvalidArgument(
          "merge input weight " + std::to_string(i) + " is " +
          std::to_string(w) + "; weights must be finite and > 0");
    }
  }

  if (pooled.size() <= config_.k) {
    ClusteringModel model;
    model.centroids = pooled.points();
    model.weights = pooled.weights();
    model.sse = 0.0;
    model.mse_per_point = 0.0;
    model.iterations = 0;
    model.converged = true;
    return model;
  }

  KMeansConfig cfg;
  cfg.k = config_.k;
  cfg.restarts = config_.restarts;
  cfg.seeding = config_.seeding;
  cfg.lloyd = config_.lloyd;
  cfg.seed = config_.seed;
  return KMeans(cfg).FitWeighted(pooled);
}

}  // namespace pmkm
