#include "cluster/partial.h"

namespace pmkm {

Result<PartialResult> PartialKMeans::Cluster(
    const WeightedDataset& partition, uint64_t partition_id) const {
  if (partition.empty()) {
    return Status::InvalidArgument("empty partition");
  }
  PartialResult out;
  out.input_points = partition.size();

  if (partition.size() <= config().k) {
    // Degenerate chunk: emit each point as a centroid of its own weight.
    out.centroids = partition;
    out.sse = 0.0;
    out.iterations = 0;
    return out;
  }

  KMeansConfig cfg = config();
  // Independent but reproducible seed stream per partition.
  cfg.seed = Rng(config().seed).Fork(partition_id ^ 0x70617274ULL).Next();
  const KMeans runner(cfg);
  PMKM_ASSIGN_OR_RETURN(ClusteringModel model, runner.FitWeighted(partition));

  // Drop starved centroids (weight 0 after unrecoverable duplication);
  // the merge step must not see zero-weight inputs.
  WeightedDataset centroids(partition.dim());
  for (size_t j = 0; j < model.k(); ++j) {
    if (model.weights[j] > 0.0) {
      centroids.Append(model.centroids.Row(j), model.weights[j]);
    }
  }
  out.centroids = std::move(centroids);
  out.sse = model.sse;
  out.iterations = model.iterations;
  return out;
}

}  // namespace pmkm
