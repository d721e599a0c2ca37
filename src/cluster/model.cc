#include "cluster/model.h"

#include "cluster/distance.h"

namespace pmkm {

size_t ClusteringModel::Predict(std::span<const double> point) const {
  PMKM_CHECK(!centroids.empty());
  PMKM_CHECK(point.size() == centroids.dim());
  // The kernels' scan, so Predict agrees with the training-time
  // assignments whichever kernel produced them.
  return NearestCentroidIndex(point, centroids);
}

}  // namespace pmkm
