#include "cluster/experiment_metrics.h"

#include "cluster/kernels/kernel.h"
#include "cluster/metrics.h"

namespace pmkm {

namespace {

// Squared distance of every point of `data` to its nearest centroid.
std::vector<double> NearestDist2(const Dataset& centroids,
                                 const Dataset& data,
                                 std::vector<uint32_t>* assign) {
  PMKM_CHECK(!centroids.empty());
  PMKM_CHECK(centroids.dim() == data.dim());
  assign->resize(data.size());
  std::vector<double> dist2(data.size());
  AssignNearest(data.data(), data.size(), data.dim(), centroids,
                assign->data(), dist2.data());
  return dist2;
}

}  // namespace

double WeightedSse(const Dataset& centroids, const WeightedDataset& data) {
  std::vector<uint32_t> assign;
  const std::vector<double> dist2 =
      NearestDist2(centroids, data.points(), &assign);
  double acc = 0.0;
  for (size_t i = 0; i < data.size(); ++i) acc += data.weight(i) * dist2[i];
  return acc;
}

double MsePerPoint(const Dataset& centroids, const Dataset& data) {
  PMKM_CHECK(!data.empty());
  return Sse(centroids, data) / static_cast<double>(data.size());
}

std::vector<size_t> AssignmentCounts(const Dataset& centroids,
                                     const Dataset& data) {
  std::vector<uint32_t> assign;
  NearestDist2(centroids, data, &assign);
  std::vector<size_t> counts(centroids.size(), 0);
  for (uint32_t j : assign) ++counts[j];
  return counts;
}

}  // namespace pmkm
