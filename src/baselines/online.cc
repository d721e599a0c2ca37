#include "baselines/online.h"

#include "cluster/distance.h"
#include "cluster/metrics.h"

namespace pmkm {

OnlineKMeans::OnlineKMeans(size_t dim, OnlineKMeansConfig config)
    : dim_(dim), config_(std::move(config)), centroids_(dim) {
  PMKM_CHECK(dim >= 1);
  PMKM_CHECK(config_.k >= 1);
}

Status OnlineKMeans::Observe(std::span<const double> point) {
  if (point.size() != dim_) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  ++points_seen_;
  if (centroids_.size() < config_.k) {
    centroids_.Append(point);
    counts_.push_back(1.0);
    return Status::OK();
  }
  const size_t j = NearestCentroidIndex(point, centroids_);
  counts_[j] += 1.0;
  const double eta = 1.0 / counts_[j];
  double* c = centroids_.mutable_data() + j * dim_;
  for (size_t d = 0; d < dim_; ++d) c[d] += eta * (point[d] - c[d]);
  return Status::OK();
}

Status OnlineKMeans::ObserveAll(const Dataset& data) {
  if (data.dim() != dim_) {
    return Status::InvalidArgument("dataset dimensionality mismatch");
  }
  for (size_t i = 0; i < data.size(); ++i) {
    PMKM_RETURN_NOT_OK(Observe(data.Row(i)));
  }
  return Status::OK();
}

Result<ClusteringModel> OnlineKMeans::Snapshot(
    const Dataset* eval_data) const {
  if (centroids_.empty()) {
    return Status::FailedPrecondition("no points observed yet");
  }
  ClusteringModel model;
  model.centroids = centroids_;
  model.weights = counts_;
  model.iterations = points_seen_;
  model.converged = true;
  if (eval_data != nullptr && !eval_data->empty()) {
    model.sse = Sse(model.centroids, *eval_data);
    model.mse_per_point =
        model.sse / static_cast<double>(eval_data->size());
  }
  return model;
}

}  // namespace pmkm
