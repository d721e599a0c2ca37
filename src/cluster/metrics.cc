#include "cluster/metrics.h"

#include "cluster/kernels/kernel.h"

namespace pmkm {

namespace {

// Squared distance of every point of `data` to its nearest centroid.
std::vector<double> NearestDist2(const Dataset& centroids,
                                 const Dataset& data,
                                 std::vector<uint32_t>* assign = nullptr) {
  PMKM_CHECK(!centroids.empty());
  PMKM_CHECK(centroids.dim() == data.dim());
  std::vector<uint32_t> local;
  if (assign == nullptr) assign = &local;
  assign->resize(data.size());
  std::vector<double> dist2(data.size());
  AssignNearest(data.data(), data.size(), data.dim(), centroids,
                assign->data(), dist2.data());
  return dist2;
}

}  // namespace

double Sse(const Dataset& centroids, const Dataset& data) {
  double acc = 0.0;
  for (double d2 : NearestDist2(centroids, data)) acc += d2;
  return acc;
}

double WeightedSse(const Dataset& centroids, const WeightedDataset& data) {
  const std::vector<double> dist2 = NearestDist2(centroids, data.points());
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

double ModelSseOn(const ClusteringModel& model, const Dataset& data) {
  return Sse(model.centroids, data);
}

}  // namespace pmkm
