// Mini-batch k-means (Sculley, WWW'10): the modern streaming analogue the
// reproduction brief calls out (cf. scikit-learn's MiniBatchKMeans and
// Spark's streaming k-means). Included as a baseline so the benchmark can
// place partial/merge k-means against what practitioners would reach for
// today.

#ifndef PMKM_BENCH_LIB_BASELINES_MINIBATCH_H_
#define PMKM_BENCH_LIB_BASELINES_MINIBATCH_H_

#include "cluster/model.h"
#include "common/result.h"
#include "common/rng.h"
#include "data/dataset.h"

namespace pmkm {

struct MiniBatchConfig {
  size_t k = 40;
  size_t batch_size = 256;
  size_t max_batches = 400;

  /// Stop when the average per-batch centroid movement stays below this
  /// for `patience` consecutive batches.
  double tol = 1e-4;
  size_t patience = 10;

  uint64_t seed = 11;
};

/// Fits mini-batch k-means over `data` (sampling batches with replacement,
/// per Sculley). Returns a model whose sse/mse are evaluated with one final
/// full pass over `data`.
Result<ClusteringModel> MiniBatchKMeans(const Dataset& data,
                                        const MiniBatchConfig& config);

}  // namespace pmkm

#endif  // PMKM_BENCH_LIB_BASELINES_MINIBATCH_H_
