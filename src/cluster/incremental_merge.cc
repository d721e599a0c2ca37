#include "cluster/incremental_merge.h"

#include <cmath>

namespace pmkm {

IncrementalMergeKMeans::IncrementalMergeKMeans(size_t dim,
                                               MergeKMeansConfig config)
    : dim_(dim), config_(std::move(config)), running_(dim) {
  PMKM_CHECK(dim >= 1);
  PMKM_CHECK(config_.k >= 1);
}

Status IncrementalMergeKMeans::Push(const WeightedDataset& centroids) {
  if (centroids.dim() != dim_) {
    return Status::InvalidArgument("centroid dimensionality mismatch");
  }
  if (centroids.empty()) {
    return Status::InvalidArgument("empty centroid set");
  }
  for (size_t i = 0; i < centroids.size(); ++i) {
    const double w = centroids.weight(i);
    if (!std::isfinite(w) || w <= 0.0) {
      return Status::InvalidArgument(
          "centroid weight must be finite and > 0");
    }
  }
  running_.AppendAll(centroids);
  ++partitions_merged_;

  if (running_.size() > config_.k) {
    // Re-cluster the running set down to k. The k heaviest seeds include
    // long-lived centroids whose weights have accumulated over many
    // merges — the "preferential treatment" of early chunks.
    const MergeKMeans merger(config_);
    PMKM_ASSIGN_OR_RETURN(ClusteringModel model, merger.Merge(running_));
    last_sse_ = model.sse;
    last_iterations_ = model.iterations;
    running_ = WeightedDataset(dim_);
    for (size_t j = 0; j < model.k(); ++j) {
      if (model.weights[j] > 0.0) {
        running_.Append(model.centroids.Row(j), model.weights[j]);
      }
    }
  }
  return Status::OK();
}

Result<ClusteringModel> IncrementalMergeKMeans::Finish() const {
  if (running_.empty()) {
    return Status::FailedPrecondition("no partitions pushed");
  }
  ClusteringModel model;
  model.centroids = running_.points();
  model.weights = running_.weights();
  model.sse = last_sse_;
  const double total = running_.TotalWeight();
  model.mse_per_point = total > 0.0 ? last_sse_ / total : 0.0;
  model.iterations = last_iterations_;
  model.converged = true;
  return model;
}

}  // namespace pmkm
