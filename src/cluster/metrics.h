// Clustering quality metrics.
//
// The paper's quality measure is the error function E (which it calls MSE):
// the (weighted) total squared distance of every point to its assigned
// centroid. Table 2's "Min MSE" column is E of the best restart. We also
// expose the per-point normalization and the true quantization error of a
// model against the *original* cell data, which lets the experiments verify
// that partial/merge quality claims hold on raw points, not only on E_pm
// over centroids.
//
// Every nearest-centroid query here runs on the DistanceKernel
// (AssignNearest), so E of a model's own training data under its own
// centroids has the bits RunWeightedLloyd reported, under any --kernel.

#ifndef PMKM_CLUSTER_METRICS_H_
#define PMKM_CLUSTER_METRICS_H_

#include "cluster/model.h"
#include "data/weighted.h"

namespace pmkm {

/// E = Σ_i ‖x_i − c(x_i)‖²: total squared distance of each point of `data`
/// to its nearest centroid.
double Sse(const Dataset& centroids, const Dataset& data);

/// Weighted E_pm = Σ_i w_i ‖x_i − c(x_i)‖².
double WeightedSse(const Dataset& centroids, const WeightedDataset& data);

/// E / N (mean squared quantization error per point).
double MsePerPoint(const Dataset& centroids, const Dataset& data);

/// Per-centroid assigned counts of `data` under nearest-centroid rule.
std::vector<size_t> AssignmentCounts(const Dataset& centroids,
                                     const Dataset& data);

/// E of `data` under `model`'s centroids: exactly Sse(model.centroids,
/// data), spelled on the model for callers that hold one.
double ModelSseOn(const ClusteringModel& model, const Dataset& data);

}  // namespace pmkm

#endif  // PMKM_CLUSTER_METRICS_H_
