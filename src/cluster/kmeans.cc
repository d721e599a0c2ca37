#include "cluster/kmeans.h"

namespace pmkm {

Result<ClusteringModel> KMeans::FitWeighted(
    const WeightedDataset& data) const {
  PMKM_RETURN_NOT_OK(config_.Validate());
  if (data.size() < config_.k) {
    return Status::InvalidArgument(
        "dataset has " + std::to_string(data.size()) +
        " points, fewer than k=" + std::to_string(config_.k));
  }
  Rng master(config_.seed);
  ClusteringModel best;
  for (size_t r = 0; r < config_.restarts; ++r) {
    Rng rng = master.Fork(r + 1);
    PMKM_ASSIGN_OR_RETURN(
        Dataset seeds,
        SelectSeeds(data, config_.k, config_.seeding, &rng));
    PMKM_ASSIGN_OR_RETURN(
        ClusteringModel model,
        RunWeightedLloyd(data, std::move(seeds), config_.lloyd, &rng));
    if (model.sse < best.sse) best = std::move(model);
  }
  // Only a non-finite SSE fails `< +inf` in every restart: the data holds
  // a NaN or infinite coordinate or weight (or squares that overflow).
  if (best.centroids.empty()) {
    return Status::InvalidArgument(
        "k-means error is not finite in any restart: the data contains a "
        "non-finite coordinate or weight");
  }
  return best;
}

}  // namespace pmkm
