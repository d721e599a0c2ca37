// Incremental merge — the paper's §3.3 option (a).
//
// The paper describes two ways to merge partial results: (a) incrementally
// — fold each arriving centroid set into the running representation — or
// (b) collectively — buffer all sets and run one weighted k-means (what
// MergeKMeans implements). The authors argue (b) is statistically fairer
// because early chunks are "not treated preferentially". This class
// implements (a) so the claim can be measured (bench_ablation_merge): the
// running k weighted centroids are re-clustered with the newly arrived set
// after every partition, so early partitions participate in every
// subsequent merge — exactly the preferential treatment the paper warns
// about.
//
// As a side benefit, incremental merging needs only O(k + k_p) memory at
// any time, versus O(Σ k_p) for the collective merge.

#ifndef PMKM_BENCH_LIB_CLUSTER_INCREMENTAL_MERGE_H_
#define PMKM_BENCH_LIB_CLUSTER_INCREMENTAL_MERGE_H_

#include "cluster/merge.h"

namespace pmkm {

/// Streaming consumer of partial centroid sets.
class IncrementalMergeKMeans {
 public:
  /// `config.k` must be the final cluster count (> 0).
  IncrementalMergeKMeans(size_t dim, MergeKMeansConfig config);

  /// Folds one partition's weighted centroids into the running model.
  /// Until at least k weighted points have been seen, sets are buffered
  /// verbatim; afterwards each Push triggers a weighted k-means over
  /// (running ∪ arrived).
  Status Push(const WeightedDataset& centroids);

  /// Number of Push calls so far.
  size_t partitions_merged() const { return partitions_merged_; }

  /// Current running representation (≤ k weighted centroids).
  const WeightedDataset& running() const { return running_; }

  /// Final model. Fails if nothing was pushed.
  Result<ClusteringModel> Finish() const;

 private:
  size_t dim_;
  MergeKMeansConfig config_;
  WeightedDataset running_;
  size_t partitions_merged_ = 0;
  double last_sse_ = 0.0;
  size_t last_iterations_ = 0;
};

}  // namespace pmkm

#endif  // PMKM_BENCH_LIB_CLUSTER_INCREMENTAL_MERGE_H_
