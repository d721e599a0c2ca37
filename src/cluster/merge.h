// Merge k-means (paper §3.3): the collective merge of all partial results.
//
// Input: the union S of every partition's weighted centroids,
// M = Σ_p k_p points. The operator runs one weighted Lloyd fit over S,
// seeded with the k *heaviest* centroids, using weighted means
// µ_j = Σ w_i c_i / Σ w_i and the weighted error
// E_pm = Σ_k Σ_{c_i ∈ C_k} ‖µ_k − c_i‖² · w_i. Neither the seeding nor
// the Lloyd loop draws a random number, so the merge has no seed and no
// restarts: a second run from the same seeds would repeat the first.
//
// The paper argues for the collective (not incremental) merge: every
// partition's centroids get the same statistical chance to contribute.

#ifndef PMKM_CLUSTER_MERGE_H_
#define PMKM_CLUSTER_MERGE_H_

#include "cluster/lloyd.h"

namespace pmkm {

struct MergeKMeansConfig {
  /// Final cluster count (paper: same k as the partial steps).
  size_t k = 40;

  LloydConfig lloyd;
};

/// The merge k-means computation.
class MergeKMeans {
 public:
  explicit MergeKMeans(MergeKMeansConfig config)
      : config_(std::move(config)) {}

  const MergeKMeansConfig& config() const { return config_; }

  /// Clusters the pooled weighted centroids into the final model. If the
  /// pool has at most k members it is returned as-is (already a valid
  /// clustering of itself, E_pm = 0). Fails on a weight that is not finite
  /// and > 0, and on a fit whose error is not finite (a non-finite
  /// coordinate, or squares that overflow).
  Result<ClusteringModel> Merge(const WeightedDataset& pooled) const;

 private:
  MergeKMeansConfig config_;
};

}  // namespace pmkm

#endif  // PMKM_CLUSTER_MERGE_H_
