// Seed selection for Lloyd iterations: one function per step of the paper.
//
// The serial and partial steps seed with uniformly random data points
// (§2 step 1); the merge step with the k heaviest weighted centroids
// (§3.3 step 1, "forces the algorithm to take into account which data
// points are likely to represent significant cluster centroids already").
// k-means++ is an ablation and lives with the experiments
// (bench/lib/cluster/kmeans_plus_plus.h).

#ifndef PMKM_CLUSTER_SEEDING_H_
#define PMKM_CLUSTER_SEEDING_H_

#include "common/result.h"
#include "common/rng.h"
#include "data/weighted.h"

namespace pmkm {

/// k distinct points of `data` chosen uniformly (weights are ignored).
/// Fails if k = 0 or data has fewer than k points.
Result<Dataset> RandomSeeds(const WeightedDataset& data, size_t k, Rng* rng);

/// The k points with the largest weights, the lower index first among
/// equal weights. Draws no random number. Fails as RandomSeeds does.
Result<Dataset> HeaviestSeeds(const WeightedDataset& data, size_t k);

}  // namespace pmkm

#endif  // PMKM_CLUSTER_SEEDING_H_
