#include "cluster/validity.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "cluster/distance.h"
#include "cluster/kernels/kernel.h"

namespace pmkm {

Result<double> SilhouetteScore(const ClusteringModel& model,
                               const Dataset& data, size_t sample_cap,
                               uint64_t seed) {
  if (model.k() < 2) {
    return Status::InvalidArgument("silhouette needs k >= 2");
  }
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  if (data.dim() != model.dim()) {
    return Status::InvalidArgument("dimensionality mismatch");
  }
  const size_t dim = data.dim();

  // Sample points if requested.
  std::vector<size_t> idx(data.size());
  std::iota(idx.begin(), idx.end(), 0);
  if (sample_cap > 0 && data.size() > sample_cap) {
    Rng rng(seed);
    for (size_t i = 0; i < sample_cap; ++i) {
      const size_t j = i + rng.UniformInt(idx.size() - i);
      std::swap(idx[i], idx[j]);
    }
    idx.resize(sample_cap);
  }

  // Assign the sampled points.
  Dataset sample(dim);
  sample.Reserve(idx.size());
  for (size_t i : idx) sample.Append(data.Row(i));
  std::vector<uint32_t> assign(sample.size());
  std::vector<double> dist2(sample.size());
  AssignNearest(sample.data(), sample.size(), dim, model.centroids,
                assign.data(), dist2.data());
  std::vector<size_t> cluster_count(model.k(), 0);
  for (uint32_t j : assign) ++cluster_count[j];
  size_t populated = 0;
  for (size_t c : cluster_count) populated += (c > 0);
  if (populated < 2) {
    return Status::FailedPrecondition(
        "fewer than 2 populated clusters in the (sampled) data");
  }

  // Pairwise silhouette over the sample.
  double total = 0.0;
  size_t scored = 0;
  std::vector<double> dist_sum(model.k());
  for (size_t s = 0; s < sample.size(); ++s) {
    const uint32_t own = assign[s];
    if (cluster_count[own] <= 1) continue;  // silhouette undefined
    std::fill(dist_sum.begin(), dist_sum.end(), 0.0);
    for (size_t t = 0; t < sample.size(); ++t) {
      if (t == s) continue;
      dist_sum[assign[t]] +=
          std::sqrt(SquaredL2(sample.Row(s), sample.Row(t)));
    }
    const double a =
        dist_sum[own] / static_cast<double>(cluster_count[own] - 1);
    double b = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < model.k(); ++c) {
      if (c == own || cluster_count[c] == 0) continue;
      b = std::min(b, dist_sum[c] / static_cast<double>(cluster_count[c]));
    }
    const double denom = std::max(a, b);
    if (denom > 0.0) {
      total += (b - a) / denom;
    }
    ++scored;
  }
  if (scored == 0) {
    return Status::FailedPrecondition("no scorable points (singletons)");
  }
  return total / static_cast<double>(scored);
}

Result<double> DaviesBouldinIndex(const ClusteringModel& model,
                                  const Dataset& data) {
  if (model.k() < 2) {
    return Status::InvalidArgument("Davies-Bouldin needs k >= 2");
  }
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  if (data.dim() != model.dim()) {
    return Status::InvalidArgument("dimensionality mismatch");
  }
  const size_t k = model.k();

  std::vector<uint32_t> assign(data.size());
  std::vector<double> dist2(data.size());
  AssignNearest(data.data(), data.size(), data.dim(), model.centroids,
                assign.data(), dist2.data());
  std::vector<double> scatter(k, 0.0);  // mean distance to centroid
  std::vector<size_t> count(k, 0);
  for (size_t i = 0; i < data.size(); ++i) {
    scatter[assign[i]] += std::sqrt(dist2[i]);
    ++count[assign[i]];
  }
  std::vector<size_t> live;
  for (size_t j = 0; j < k; ++j) {
    if (count[j] > 0) {
      scatter[j] /= static_cast<double>(count[j]);
      live.push_back(j);
    }
  }
  if (live.size() < 2) {
    return Status::FailedPrecondition("fewer than 2 populated clusters");
  }

  double total = 0.0;
  for (size_t a : live) {
    double worst = 0.0;
    for (size_t b : live) {
      if (a == b) continue;
      const double d = std::sqrt(SquaredL2(
          model.centroids.Row(a), model.centroids.Row(b)));
      if (d <= 0.0) continue;  // coincident centroids: skip the pair
      worst = std::max(worst, (scatter[a] + scatter[b]) / d);
    }
    total += worst;
  }
  return total / static_cast<double>(live.size());
}

}  // namespace pmkm
