// k-means++ seeding (Arthur & Vassilvitskii, SODA'07), weight-aware: D²
// sampling with each point's probability scaled by its weight. The paper
// seeds its steps at random and with the heaviest centroids
// (cluster/seeding.h); k-means++ is the alternative the seeding ablation
// (bench_ablation_seeding), mini-batch k-means and ECVQ start from.

#ifndef PMKM_BENCH_LIB_CLUSTER_KMEANS_PLUS_PLUS_H_
#define PMKM_BENCH_LIB_CLUSTER_KMEANS_PLUS_PLUS_H_

#include "cluster/lloyd.h"
#include "common/result.h"
#include "common/rng.h"
#include "data/weighted.h"

namespace pmkm {

/// k D²-sampled points of `data`: the first drawn by weight, each next by
/// weight times squared distance to the nearest chosen one (uniformly once
/// every point coincides with a chosen one). Fails if k = 0 or data has
/// fewer than k points.
Result<Dataset> KMeansPlusPlusSeeds(const WeightedDataset& data, size_t k,
                                    Rng* rng);

/// KMeans::FitWeighted with k-means++ seeds: the best by weighted SSE of
/// `restarts` Lloyd fits, restart r seeded from Rng(seed).Fork(r + 1).
/// InvalidArgument if no fit's error is finite.
Result<ClusteringModel> FitKMeansPlusPlus(const WeightedDataset& data,
                                          size_t k, size_t restarts,
                                          uint64_t seed,
                                          const LloydConfig& lloyd);

}  // namespace pmkm

#endif  // PMKM_BENCH_LIB_CLUSTER_KMEANS_PLUS_PLUS_H_
