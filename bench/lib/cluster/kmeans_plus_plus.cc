#include "cluster/kmeans_plus_plus.h"

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/distance.h"

namespace pmkm {

namespace {

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

Result<Dataset> KMeansPlusPlusSeeds(const WeightedDataset& data, size_t k,
                                    Rng* rng) {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (data.size() < k) {
    return Status::InvalidArgument(
        "cannot select " + std::to_string(k) + " seeds from " +
        std::to_string(data.size()) + " points");
  }
  PMKM_CHECK(rng != nullptr);
  Dataset seeds(data.dim());
  seeds.Reserve(k);
  for (size_t i : KMeansPlusPlusIndices(data, k, rng)) {
    seeds.Append(data.Row(i));
  }
  return seeds;
}

Result<ClusteringModel> FitKMeansPlusPlus(const WeightedDataset& data,
                                          size_t k, size_t restarts,
                                          uint64_t seed,
                                          const LloydConfig& lloyd) {
  if (restarts == 0) return Status::InvalidArgument("restarts must be >= 1");
  Rng master(seed);
  ClusteringModel best;
  for (size_t r = 0; r < restarts; ++r) {
    Rng rng = master.Fork(r + 1);
    PMKM_ASSIGN_OR_RETURN(Dataset seeds, KMeansPlusPlusSeeds(data, k, &rng));
    PMKM_ASSIGN_OR_RETURN(ClusteringModel model,
                          RunWeightedLloyd(data, std::move(seeds), lloyd));
    if (model.sse < best.sse) best = std::move(model);
  }
  if (best.centroids.empty()) {
    return Status::InvalidArgument("k-means error is not finite in any "
                                   "restart");
  }
  return best;
}

}  // namespace pmkm
