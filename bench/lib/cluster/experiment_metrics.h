// The experiments' quality measures beyond E (cluster/metrics.h): the
// weighted E_pm that STREAM LocalSearch reports, E per point for the
// histogram reconstruction error, and the per-centroid counts that
// mini-batch k-means stores as weights. Like Sse, every nearest-centroid
// query runs on the DistanceKernel (AssignNearest), so the numbers carry
// the bits of the fit they score.

#ifndef PMKM_BENCH_LIB_CLUSTER_EXPERIMENT_METRICS_H_
#define PMKM_BENCH_LIB_CLUSTER_EXPERIMENT_METRICS_H_

#include <vector>

#include "data/dataset.h"
#include "data/weighted.h"

namespace pmkm {

/// Weighted E_pm = Σ_i w_i ‖x_i − c(x_i)‖².
double WeightedSse(const Dataset& centroids, const WeightedDataset& data);

/// E / N (mean squared quantization error per point).
double MsePerPoint(const Dataset& centroids, const Dataset& data);

/// Per-centroid assigned counts of `data` under nearest-centroid rule.
std::vector<size_t> AssignmentCounts(const Dataset& centroids,
                                     const Dataset& data);

}  // namespace pmkm

#endif  // PMKM_BENCH_LIB_CLUSTER_EXPERIMENT_METRICS_H_
