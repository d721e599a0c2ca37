// ClusteringModel: the result of any clustering run in pmkm (serial
// k-means, partial/merge, baselines). Centroids are weighted so a model can
// itself be fed into a merge step or a histogram builder. A model keeps no
// per-point assignment: the nearest centroid (AssignNearest,
// cluster/kernels/kernel.h) of a training point is its cluster.

#ifndef PMKM_CLUSTER_MODEL_H_
#define PMKM_CLUSTER_MODEL_H_

#include <limits>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "data/weighted.h"

namespace pmkm {

/// A fitted clustering: k centroids, their weights (number of original
/// points represented, possibly fractional after merging), and quality.
struct ClusteringModel {
  /// k × D centroid matrix.
  Dataset centroids{1};

  /// Per-centroid weight: total (weighted) count of assigned points.
  std::vector<double> weights;

  /// The paper's error function E: total (weighted) squared distance of
  /// training points to their centroid. This is what Table 2 reports as
  /// "Min MSE".
  double sse = std::numeric_limits<double>::infinity();

  /// sse divided by the total training weight (per-point error).
  double mse_per_point = std::numeric_limits<double>::infinity();

  /// Lloyd iterations of the (best) run that produced this model.
  size_t iterations = 0;

  /// Whether that run met the convergence criterion before max_iterations.
  bool converged = false;

  size_t k() const { return centroids.size(); }
  size_t dim() const { return centroids.dim(); }

  /// The centroids as a weighted dataset (input format of merge k-means).
  WeightedDataset ToWeighted() const {
    auto r = WeightedDataset::Create(centroids, weights);
    PMKM_CHECK(r.ok()) << r.status();
    return std::move(r).value();
  }
};

}  // namespace pmkm

#endif  // PMKM_CLUSTER_MODEL_H_
