#include "cluster/seeding.h"

#include <algorithm>
#include <numeric>

#include "cluster/distance.h"

namespace pmkm {

const char* SeedingMethodToString(SeedingMethod method) {
  switch (method) {
    case SeedingMethod::kRandom:
      return "random";
    case SeedingMethod::kHeaviestWeight:
      return "heaviest";
    case SeedingMethod::kKMeansPlusPlus:
      return "kmeans++";
  }
  return "?";
}

namespace {

Dataset SeedsFromIndices(const WeightedDataset& data,
                         const std::vector<size_t>& indices) {
  Dataset seeds(data.dim());
  seeds.Reserve(indices.size());
  for (size_t i : indices) seeds.Append(data.Row(i));
  return seeds;
}

std::vector<size_t> RandomDistinct(size_t n, size_t k, Rng* rng) {
  // Floyd's algorithm would do, but a partial Fisher–Yates over an index
  // array is simpler and n is at most a partition size here.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (size_t i = 0; i < k; ++i) {
    const size_t j = i + rng->UniformInt(n - i);
    std::swap(order[i], order[j]);
  }
  order.resize(k);
  return order;
}

std::vector<size_t> HeaviestIndices(const std::vector<double>& weights,
                                    size_t k) {
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
  return order;
}

std::vector<size_t> KMeansPlusPlusIndices(const WeightedDataset& data,
                                          size_t k, Rng* rng) {
  const size_t n = data.size();
  std::vector<size_t> chosen;
  chosen.reserve(k);

  // First seed: weight-proportional draw.
  const double total = data.TotalWeight();
  double u = rng->UniformDouble() * total;
  size_t first = 0;
  for (size_t i = 0; i < n; ++i) {
    u -= data.weight(i);
    if (u <= 0.0) {
      first = i;
      break;
    }
  }
  chosen.push_back(first);

  std::vector<double> dist_sq(n);
  for (size_t i = 0; i < n; ++i) {
    dist_sq[i] = SquaredL2(data.Row(i), data.Row(first));
  }

  while (chosen.size() < k) {
    double z = 0.0;
    for (size_t i = 0; i < n; ++i) z += data.weight(i) * dist_sq[i];
    size_t next;
    if (z <= 0.0) {
      // All mass already covered (duplicate points); fall back to uniform.
      next = rng->UniformInt(n);
    } else {
      double target = rng->UniformDouble() * z;
      next = n - 1;
      for (size_t i = 0; i < n; ++i) {
        target -= data.weight(i) * dist_sq[i];
        if (target <= 0.0) {
          next = i;
          break;
        }
      }
    }
    chosen.push_back(next);
    for (size_t i = 0; i < n; ++i) {
      dist_sq[i] =
          std::min(dist_sq[i], SquaredL2(data.Row(i), data.Row(next)));
    }
  }
  return chosen;
}

}  // namespace

Result<Dataset> SelectSeeds(const WeightedDataset& data, size_t k,
                            SeedingMethod method, Rng* rng) {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (data.size() < k) {
    return Status::InvalidArgument(
        "cannot select " + std::to_string(k) + " seeds from " +
        std::to_string(data.size()) + " points");
  }
  PMKM_CHECK(rng != nullptr);
  switch (method) {
    case SeedingMethod::kRandom:
      return SeedsFromIndices(data, RandomDistinct(data.size(), k, rng));
    case SeedingMethod::kHeaviestWeight:
      return SeedsFromIndices(data, HeaviestIndices(data.weights(), k));
    case SeedingMethod::kKMeansPlusPlus:
      return SeedsFromIndices(data, KMeansPlusPlusIndices(data, k, rng));
  }
  return Status::Internal("unreachable seeding method");
}

}  // namespace pmkm
