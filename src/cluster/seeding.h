// Seed selection for Lloyd iterations.
//
// The paper uses two strategies: uniformly random data points for the
// serial/partial steps (§2 step 1) and the k heaviest weighted centroids
// for the merge step (§3.3 step 1, "forces the algorithm to take into
// account which data points are likely to represent significant cluster
// centroids already"). k-means++ is provided for ablations.

#ifndef PMKM_CLUSTER_SEEDING_H_
#define PMKM_CLUSTER_SEEDING_H_

#include "common/result.h"
#include "common/rng.h"
#include "data/weighted.h"

namespace pmkm {

enum class SeedingMethod {
  kRandom,         // k distinct points chosen uniformly
  kHeaviestWeight, // the k points with the largest weights (merge step)
  kKMeansPlusPlus, // D² sampling (Arthur & Vassilvitskii), weight-aware
};

const char* SeedingMethodToString(SeedingMethod method);

/// Picks k initial centroids from `data` (weights are ignored by kRandom,
/// define the ranking for kHeaviestWeight, and scale the D² probabilities
/// for kKMeansPlusPlus). Fails if data has fewer than k points.
Result<Dataset> SelectSeeds(const WeightedDataset& data, size_t k,
                            SeedingMethod method, Rng* rng);

}  // namespace pmkm

#endif  // PMKM_CLUSTER_SEEDING_H_
