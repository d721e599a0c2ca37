#include "cluster/metrics.h"

#include "cluster/kernels/kernel.h"

namespace pmkm {

double Sse(const Dataset& centroids, const Dataset& data) {
  PMKM_CHECK(!centroids.empty());
  PMKM_CHECK(centroids.dim() == data.dim());
  std::vector<uint32_t> assign(data.size());
  std::vector<double> dist2(data.size());
  AssignNearest(data.data(), data.size(), data.dim(), centroids,
                assign.data(), dist2.data());
  double acc = 0.0;
  for (double d2 : dist2) acc += d2;
  return acc;
}

double ModelSseOn(const ClusteringModel& model, const Dataset& data) {
  return Sse(model.centroids, data);
}

}  // namespace pmkm
