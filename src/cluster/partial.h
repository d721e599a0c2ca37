// Partial k-means (paper §3.2): clusters one memory-sized partition P_j of
// a grid cell with multi-restart k-means and emits k weighted centroids
// {(c_1j, w_1j), ..., (c_kj, w_kj)}, where w_ij is the number of partition
// points assigned to c_ij — so Σ_i w_ij = N_j.

#ifndef PMKM_CLUSTER_PARTIAL_H_
#define PMKM_CLUSTER_PARTIAL_H_

#include "cluster/kmeans.h"

namespace pmkm {

/// Result of clustering one partition: the weighted centroid set that flows
/// to the merge operator, plus run diagnostics.
struct PartialResult {
  WeightedDataset centroids{1};
  double sse = 0.0;        // min-over-restarts partition error
  size_t iterations = 0;   // iterations of the winning restart
  size_t input_points = 0; // N_j
};

/// The partial k-means computation. Stateless and thread-safe: the stream
/// engine clones it freely across operator instances.
class PartialKMeans {
 public:
  explicit PartialKMeans(KMeansConfig config) : kmeans_(std::move(config)) {}

  const KMeansConfig& config() const { return kmeans_.config(); }

  /// Clusters one partition. `partition_id` decorrelates the restart seed
  /// streams of different partitions under one master seed.
  ///
  /// Partitions no larger than k are passed through verbatim, weights
  /// included (every point is its own cluster; exact, and the only lossless
  /// choice for a degenerate chunk).
  Result<PartialResult> Cluster(const WeightedDataset& partition,
                                uint64_t partition_id) const;

  /// The same fit over a plain dataset (every point weight 1). Copies the
  /// points; callers that own the partition wrap it once with
  /// WeightedDataset::FromUnweighted and fit it in place.
  Result<PartialResult> Cluster(const Dataset& partition,
                                uint64_t partition_id) const {
    return Cluster(WeightedDataset::FromUnweighted(partition), partition_id);
  }

 private:
  KMeans kmeans_;
};

}  // namespace pmkm

#endif  // PMKM_CLUSTER_PARTIAL_H_
