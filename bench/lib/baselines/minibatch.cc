#include "baselines/minibatch.h"

#include <cmath>

#include "cluster/experiment_metrics.h"
#include "cluster/kernels/kernel.h"
#include "cluster/kmeans_plus_plus.h"
#include "cluster/metrics.h"

namespace pmkm {

Result<ClusteringModel> MiniBatchKMeans(const Dataset& data,
                                        const MiniBatchConfig& config) {
  if (config.k == 0) return Status::InvalidArgument("k must be >= 1");
  if (data.size() < config.k) {
    return Status::InvalidArgument("fewer points than k");
  }
  if (config.batch_size == 0) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  Rng rng(config.seed);
  const size_t dim = data.dim();
  const size_t n = data.size();

  PMKM_ASSIGN_OR_RETURN(
      Dataset centroids,
      KMeansPlusPlusSeeds(WeightedDataset::FromUnweighted(data), config.k,
                          &rng));

  std::vector<double> counts(config.k, 0.0);  // per-centre update counts
  Dataset batch(dim);
  std::vector<uint32_t> batch_assign(config.batch_size);
  std::vector<double> batch_dist2(config.batch_size);
  size_t calm_batches = 0;
  size_t batches = 0;
  for (batches = 0; batches < config.max_batches; ++batches) {
    // Cache assignments for this batch, then apply per-point SGD updates
    // with learning rate 1/count (Sculley's algorithm).
    batch.Clear();
    for (size_t b = 0; b < config.batch_size; ++b) {
      batch.Append(data.Row(rng.UniformInt(n)));
    }
    AssignNearest(batch.data(), config.batch_size, dim, centroids,
                  batch_assign.data(), batch_dist2.data());
    double movement = 0.0;
    for (size_t b = 0; b < config.batch_size; ++b) {
      const size_t j = batch_assign[b];
      counts[j] += 1.0;
      const double eta = 1.0 / counts[j];
      double* c = centroids.mutable_data() + j * dim;
      const double* x = batch.data() + b * dim;
      double step_sq = 0.0;
      for (size_t d = 0; d < dim; ++d) {
        const double delta = eta * (x[d] - c[d]);
        c[d] += delta;
        step_sq += delta * delta;
      }
      movement += std::sqrt(step_sq);
    }
    movement /= static_cast<double>(config.batch_size);
    if (movement < config.tol) {
      if (++calm_batches >= config.patience) {
        ++batches;
        break;
      }
    } else {
      calm_batches = 0;
    }
  }

  ClusteringModel model;
  model.centroids = std::move(centroids);
  model.iterations = batches;
  model.converged = calm_batches >= config.patience;
  // Final full-data evaluation pass.
  const std::vector<size_t> assigned_counts =
      AssignmentCounts(model.centroids, data);
  model.weights.assign(assigned_counts.begin(), assigned_counts.end());
  model.sse = Sse(model.centroids, data);
  model.mse_per_point = model.sse / static_cast<double>(n);
  return model;
}

}  // namespace pmkm
