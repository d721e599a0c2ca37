// Clustering quality metrics.
//
// The paper's quality measure is the error function E (which it calls MSE):
// the (weighted) total squared distance of every point to its assigned
// centroid. Table 2's "Min MSE" column is E of the best restart. Sse is E
// of a model against the *original* cell data, which lets the experiments
// verify that partial/merge quality claims hold on raw points, not only on
// E_pm over centroids. The experiments' other measures (weighted E, E per
// point, per-centroid counts) live with them in bench/lib
// (cluster/experiment_metrics.h).
//
// Every nearest-centroid query here runs on the DistanceKernel
// (AssignNearest), so E of a model's own training data under its own
// centroids has the bits RunWeightedLloyd reported, under any --kernel.

#ifndef PMKM_CLUSTER_METRICS_H_
#define PMKM_CLUSTER_METRICS_H_

#include "cluster/model.h"

namespace pmkm {

/// E = Σ_i ‖x_i − c(x_i)‖²: total squared distance of each point of `data`
/// to its nearest centroid.
double Sse(const Dataset& centroids, const Dataset& data);

/// E of `data` under `model`'s centroids: exactly Sse(model.centroids,
/// data), spelled on the model for callers that hold one.
double ModelSseOn(const ClusteringModel& model, const Dataset& data);

}  // namespace pmkm

#endif  // PMKM_CLUSTER_METRICS_H_
