#include "cluster/merge.h"

#include <cmath>
#include <string>

#include "cluster/seeding.h"

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

  PMKM_ASSIGN_OR_RETURN(Dataset seeds, HeaviestSeeds(pooled, config_.k));
  PMKM_ASSIGN_OR_RETURN(
      ClusteringModel model,
      RunWeightedLloyd(pooled, std::move(seeds), config_.lloyd));
  // KMeans::FitWeighted's error, word for word: a quarantine reason reads
  // the same whichever fit failed.
  if (!std::isfinite(model.sse)) {
    return Status::InvalidArgument(
        "k-means error is not finite in any restart: the data contains a "
        "non-finite coordinate or weight");
  }
  return model;
}

}  // namespace pmkm
