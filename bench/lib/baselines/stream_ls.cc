#include "baselines/stream_ls.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cluster/distance.h"
#include "cluster/experiment_metrics.h"
#include "cluster/kernels/kernel.h"

namespace pmkm {

double KMedianCost(const Dataset& medians, const WeightedDataset& data) {
  PMKM_CHECK(!medians.empty());
  std::vector<uint32_t> assign(data.size());
  std::vector<double> dist2(data.size());
  AssignNearest(data.points().data(), data.size(), data.dim(), medians,
                assign.data(), dist2.data());
  double cost = 0.0;
  for (size_t i = 0; i < data.size(); ++i) {
    cost += data.weight(i) * std::sqrt(dist2[i]);
  }
  return cost;
}

namespace {

// Cost of assigning every point to its nearest of the medoid rows given by
// `medoid_indices` into `data`; also fills per-point nearest/second-nearest
// structures used for swap evaluation.
struct AssignInfo {
  std::vector<uint32_t> nearest;
  std::vector<double> nearest_d;   // L2 distance (not squared)
  std::vector<double> second_d;
  double cost = 0.0;
};

AssignInfo Assign(const WeightedDataset& data,
                  const std::vector<size_t>& medoids) {
  const size_t n = data.size();
  AssignInfo info;
  info.nearest.resize(n);
  info.nearest_d.resize(n);
  info.second_d.resize(n);
  for (size_t i = 0; i < n; ++i) {
    // The kernels' nearest-two scan: ascending index, strictly smaller
    // wins, so a tie with the nearest becomes the second.
    uint32_t best = 0;
    double d_best = std::numeric_limits<double>::infinity();
    double d_second = d_best;
    for (size_t j = 0; j < medoids.size(); ++j) {
      const double d2 = SquaredL2(data.Row(i), data.Row(medoids[j]));
      if (d2 < d_best) {
        d_second = d_best;
        d_best = d2;
        best = static_cast<uint32_t>(j);
      } else if (d2 < d_second) {
        d_second = d2;
      }
    }
    info.nearest[i] = best;
    info.nearest_d[i] = std::sqrt(d_best);
    info.second_d[i] = std::sqrt(d_second);
    info.cost += data.weight(i) * info.nearest_d[i];
  }
  return info;
}

}  // namespace

Result<WeightedDataset> LocalSearchKMedian(const WeightedDataset& data,
                                           const StreamLsConfig& config,
                                           Rng* rng) {
  if (data.empty()) return Status::InvalidArgument("empty chunk");
  const size_t n = data.size();
  const size_t k = std::min(config.k, n);

  // Degenerate chunk: every point is a median.
  if (n <= k) return data;

  // Initial medoids: k-means++'s sampling rule on weight times distance
  // (not its square, the k-median cost), the first drawn uniformly.
  std::vector<size_t> medoids;
  {
    std::vector<double> dist(n, std::numeric_limits<double>::infinity());
    const size_t first = rng->UniformInt(n);
    medoids.push_back(first);
    for (size_t i = 0; i < n; ++i) {
      dist[i] = std::sqrt(SquaredL2(data.Row(i), data.Row(first)));
    }
    while (medoids.size() < k) {
      double z = 0.0;
      for (size_t i = 0; i < n; ++i) z += data.weight(i) * dist[i];
      size_t next = rng->UniformInt(n);
      if (z > 0.0) {
        double target = rng->UniformDouble() * z;
        for (size_t i = 0; i < n; ++i) {
          target -= data.weight(i) * dist[i];
          if (target <= 0.0) {
            next = i;
            break;
          }
        }
      }
      medoids.push_back(next);
      for (size_t i = 0; i < n; ++i) {
        dist[i] = std::min(
            dist[i], std::sqrt(SquaredL2(data.Row(i), data.Row(next))));
      }
    }
  }

  AssignInfo info = Assign(data, medoids);
  const size_t candidates =
      std::max<size_t>(1, config.swap_candidates_per_k * k);

  for (size_t sweep = 0; sweep < config.max_sweeps; ++sweep) {
    bool improved = false;
    for (size_t t = 0; t < candidates; ++t) {
      const size_t cand = rng->UniformInt(n);          // point to open
      const size_t out = rng->UniformInt(medoids.size());  // medoid to close
      if (cand == medoids[out]) continue;

      // Gain of swapping medoid `out` for point `cand`:
      // each point re-routes to min(new facility, its surviving best).
      double new_cost = 0.0;
      for (size_t i = 0; i < n; ++i) {
        const double d_cand =
            std::sqrt(SquaredL2(data.Row(i), data.Row(cand)));
        double best;
        if (info.nearest[i] == out) {
          best = std::min(d_cand, info.second_d[i]);
        } else {
          best = std::min(d_cand, info.nearest_d[i]);
        }
        new_cost += data.weight(i) * best;
        if (new_cost >= info.cost) break;  // early abandon
      }
      if (new_cost < info.cost * (1.0 - 1e-12)) {
        medoids[out] = cand;
        info = Assign(data, medoids);
        improved = true;
      }
    }
    if (!improved) break;
  }

  // Emit medians weighted by assigned mass.
  std::vector<double> mass(medoids.size(), 0.0);
  for (size_t i = 0; i < n; ++i) {
    mass[info.nearest[i]] += data.weight(i);
  }
  WeightedDataset out(data.dim());
  for (size_t j = 0; j < medoids.size(); ++j) {
    if (mass[j] > 0.0) out.Append(data.Row(medoids[j]), mass[j]);
  }
  return out;
}

StreamLocalSearch::StreamLocalSearch(size_t dim, StreamLsConfig config)
    : dim_(dim),
      config_(std::move(config)),
      rng_(config_.seed),
      buffer_(dim),
      retained_(dim) {
  PMKM_CHECK(dim >= 1);
  PMKM_CHECK(config_.k >= 1);
  PMKM_CHECK(config_.chunk_points >= 1);
}

Status StreamLocalSearch::ReduceBuffer() {
  if (buffer_.empty()) return Status::OK();
  PMKM_ASSIGN_OR_RETURN(WeightedDataset medians,
                        LocalSearchKMedian(buffer_, config_, &rng_));
  retained_.AppendAll(medians);
  buffer_ = WeightedDataset(dim_);
  return MaybeRereduce();
}

Status StreamLocalSearch::MaybeRereduce() {
  if (retained_.size() <= config_.max_retained) return Status::OK();
  PMKM_ASSIGN_OR_RETURN(WeightedDataset reduced,
                        LocalSearchKMedian(retained_, config_, &rng_));
  retained_ = std::move(reduced);
  return Status::OK();
}

Status StreamLocalSearch::Append(const Dataset& points) {
  if (points.dim() != dim_) {
    return Status::InvalidArgument("dimensionality mismatch");
  }
  for (size_t i = 0; i < points.size(); ++i) {
    buffer_.Append(points.Row(i), 1.0);
    if (buffer_.size() >= config_.chunk_points) {
      PMKM_RETURN_NOT_OK(ReduceBuffer());
    }
  }
  return Status::OK();
}

Result<ClusteringModel> StreamLocalSearch::Finish() {
  PMKM_RETURN_NOT_OK(ReduceBuffer());
  if (retained_.empty()) {
    return Status::FailedPrecondition("no points were appended");
  }
  PMKM_ASSIGN_OR_RETURN(WeightedDataset final_medians,
                        LocalSearchKMedian(retained_, config_, &rng_));
  ClusteringModel model;
  model.centroids = final_medians.points();
  model.weights = final_medians.weights();
  model.sse = WeightedSse(model.centroids, retained_);
  const double total = retained_.TotalWeight();
  model.mse_per_point = total > 0.0 ? model.sse / total : 0.0;
  model.converged = true;
  return model;
}

}  // namespace pmkm
