#include "cluster/model.h"

#include <cmath>
#include <string>

#include "cluster/distance.h"

namespace pmkm {

size_t ClusteringModel::Predict(std::span<const double> point) const {
  PMKM_CHECK(!centroids.empty());
  PMKM_CHECK(point.size() == centroids.dim());
  // The kernels' scan, so Predict agrees with the training-time
  // assignments whichever kernel produced them.
  return NearestCentroidIndex(point, centroids);
}

Status ValidateModelValues(const ClusteringModel& model) {
  if (model.k() == 0) return Status::InvalidArgument("model has no centroids");
  if (model.weights.size() != model.k()) {
    return Status::InvalidArgument(
        "model has " + std::to_string(model.weights.size()) +
        " weights for " + std::to_string(model.k()) + " centroids");
  }
  const std::vector<double>& values = model.centroids.values();
  for (size_t v = 0; v < values.size(); ++v) {
    if (!std::isfinite(values[v])) {
      return Status::InvalidArgument("non-finite value in centroid " +
                                     std::to_string(v / model.dim()));
    }
  }
  for (size_t j = 0; j < model.k(); ++j) {
    const double w = model.weights[j];
    if (!std::isfinite(w) || w < 0.0) {
      return Status::InvalidArgument("weight of centroid " +
                                     std::to_string(j) +
                                     " must be finite and >= 0");
    }
  }
  return Status::OK();
}

}  // namespace pmkm
