// Entropy-Constrained Vector Quantization (Chou, Lookabaugh & Gray 1989).
//
// The paper's §3.3 "Remarks" propose ECVQ to choose k per partition on the
// fly: start from a maximum k and minimize D + λ·R, where R is the code
// length −log2(p_j) of cluster j. The rate penalty makes small clusters
// expensive, starving uncompetitive centroids, which are then discarded —
// yielding an effective k adapted to the partition.
//
// This implements weighted ECVQ so it can run both on raw partitions and
// on weighted centroid sets inside the merge step.

#ifndef PMKM_BENCH_LIB_HISTOGRAM_ECVQ_H_
#define PMKM_BENCH_LIB_HISTOGRAM_ECVQ_H_

#include "cluster/model.h"
#include "common/result.h"
#include "common/rng.h"
#include "data/weighted.h"

namespace pmkm {

struct EcvqConfig {
  /// Upper bound on the codebook size (the paper's "maximum k").
  size_t max_k = 64;

  /// Lagrange multiplier λ trading distortion against rate. λ = 0 reduces
  /// to plain k-means with max_k clusters; larger λ starves more clusters.
  double lambda = 1.0;

  /// Iteration/convergence control, in the paper's style: stop when the
  /// Lagrangian J = D + λR improves by at most epsilon.
  double epsilon = 1e-9;
  size_t max_iterations = 200;

  /// Drop codewords whose probability falls below this before re-iterating
  /// (starvation). 0 keeps only exactly-empty cells dropping.
  double min_probability = 1e-6;

  uint64_t seed = 17;
};

struct EcvqResult {
  ClusteringModel model;     // surviving codewords with weights
  double distortion = 0.0;   // weighted SSE
  double rate_bits = 0.0;    // average code length (entropy, bits/point)
  double lagrangian = 0.0;   // D + λ·N·R (total-cost form)
  size_t effective_k = 0;    // surviving codewords
  size_t iterations = 0;
};

/// Runs ECVQ on weighted data. The effective k (model.k()) is ≤ max_k.
Result<EcvqResult> FitEcvq(const WeightedDataset& data,
                           const EcvqConfig& config);

/// Convenience for raw points.
Result<EcvqResult> FitEcvq(const Dataset& data, const EcvqConfig& config);

}  // namespace pmkm

#endif  // PMKM_BENCH_LIB_HISTOGRAM_ECVQ_H_
