// STREAM with LOCALSEARCH (O'Callaghan, Mishra, Meyerson, Guha & Motwani,
// ICDE'02): the paper's closest related work ([7], §2.2). The stream is
// processed in memory-sized chunks; each chunk is reduced to k weighted
// medians by a k-median local search; the retained medians are clustered
// again at the end. Unlike partial/merge k-means there is no weighted
// *mean* merge — the final step is another median search over
// representatives, and intermediate levels can be re-reduced when the
// retained set itself outgrows memory.
//
// Our LOCALSEARCH is the swap-based k-median local search (CLARANS-style
// sampled swaps): start from weight-aware k-means++ medoids, then accept
// cost-improving facility swaps until no sampled swap improves. This keeps
// the algorithmic character (discrete medians, local search, O(nk) per
// sweep) without the full facility-cost binary search of the original,
// which only affects constants. Documented in DESIGN.md §5.

#ifndef PMKM_BENCH_LIB_BASELINES_STREAM_LS_H_
#define PMKM_BENCH_LIB_BASELINES_STREAM_LS_H_

#include "cluster/model.h"
#include "common/result.h"
#include "common/rng.h"
#include "data/weighted.h"

namespace pmkm {

struct StreamLsConfig {
  size_t k = 40;

  /// Chunk size m (points buffered per LOCALSEARCH invocation).
  size_t chunk_points = 5000;

  /// Sampled candidate swaps per improvement sweep, as a multiple of k.
  size_t swap_candidates_per_k = 8;

  /// Max improvement sweeps per LOCALSEARCH call.
  size_t max_sweeps = 20;

  /// When the retained median set exceeds this, it is itself re-clustered
  /// to k medians (the STREAM paper's hierarchical re-reduction).
  size_t max_retained = 2000;

  uint64_t seed = 7;
};

/// k-median cost: Σ_i w_i · ‖x_i − nearest median‖ (L2 distance, not
/// squared — medians, not means).
double KMedianCost(const Dataset& medians, const WeightedDataset& data);

/// One LOCALSEARCH invocation: k weighted medians of `data` (medians are
/// actual input points). Fails if data has fewer than 1 point.
Result<WeightedDataset> LocalSearchKMedian(const WeightedDataset& data,
                                           const StreamLsConfig& config,
                                           Rng* rng);

/// The streaming driver.
class StreamLocalSearch {
 public:
  explicit StreamLocalSearch(size_t dim, StreamLsConfig config);

  /// Feeds points; chunks are reduced as they fill.
  Status Append(const Dataset& points);

  /// Flushes the partial chunk and clusters all retained medians to the
  /// final k centers. The returned model's sse/mse are computed in the
  /// squared-error metric over the retained medians so it is comparable to
  /// the k-means numbers in the benchmark tables.
  Result<ClusteringModel> Finish();

  size_t retained_medians() const { return retained_.size(); }

 private:
  Status ReduceBuffer();
  Status MaybeRereduce();

  size_t dim_;
  StreamLsConfig config_;
  Rng rng_;
  WeightedDataset buffer_;
  WeightedDataset retained_;
};

}  // namespace pmkm

#endif  // PMKM_BENCH_LIB_BASELINES_STREAM_LS_H_
