#include "cluster/seeding.h"

#include <algorithm>
#include <numeric>

namespace pmkm {

namespace {

Status CheckSeedCount(const WeightedDataset& data, size_t k) {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (data.size() < k) {
    return Status::InvalidArgument(
        "cannot select " + std::to_string(k) + " seeds from " +
        std::to_string(data.size()) + " points");
  }
  return Status::OK();
}

Dataset SeedsFromIndices(const WeightedDataset& data,
                         const std::vector<size_t>& indices) {
  Dataset seeds(data.dim());
  seeds.Reserve(indices.size());
  for (size_t i : indices) seeds.Append(data.Row(i));
  return seeds;
}

}  // namespace

Result<Dataset> RandomSeeds(const WeightedDataset& data, size_t k,
                            Rng* rng) {
  PMKM_RETURN_NOT_OK(CheckSeedCount(data, k));
  PMKM_CHECK(rng != nullptr);
  // Floyd's algorithm would do, but a partial Fisher–Yates over an index
  // array is simpler and n is at most a partition size here.
  const size_t n = data.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (size_t i = 0; i < k; ++i) {
    const size_t j = i + rng->UniformInt(n - i);
    std::swap(order[i], order[j]);
  }
  order.resize(k);
  return SeedsFromIndices(data, order);
}

Result<Dataset> HeaviestSeeds(const WeightedDataset& data, size_t k) {
  PMKM_RETURN_NOT_OK(CheckSeedCount(data, k));
  const std::vector<double>& weights = data.weights();
  std::vector<size_t> order(weights.size());
  std::iota(order.begin(), order.end(), 0);
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&](size_t a, size_t b) {
                      // Stable rank for equal weights: lower index first.
                      if (weights[a] != weights[b])
                        return weights[a] > weights[b];
                      return a < b;
                    });
  order.resize(k);
  return SeedsFromIndices(data, order);
}

}  // namespace pmkm
