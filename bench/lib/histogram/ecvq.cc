#include "histogram/ecvq.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cluster/distance.h"
#include "cluster/kernels/kernel.h"
#include "cluster/kmeans_plus_plus.h"

namespace pmkm {

namespace {

constexpr double kLog2e = 1.4426950408889634;  // 1 / ln 2

}  // namespace

Result<EcvqResult> FitEcvq(const WeightedDataset& data,
                           const EcvqConfig& config) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  if (config.max_k == 0) return Status::InvalidArgument("max_k must be >= 1");
  if (config.lambda < 0.0) {
    return Status::InvalidArgument("lambda must be non-negative");
  }
  const size_t dim = data.dim();
  const size_t n = data.size();
  const double total_weight = data.TotalWeight();
  Rng rng(config.seed);

  const size_t k0 = std::min(config.max_k, n);
  PMKM_ASSIGN_OR_RETURN(Dataset codebook, KMeansPlusPlusSeeds(data, k0, &rng));
  // Uniform initial code lengths.
  std::vector<double> probs(codebook.size(),
                            1.0 / static_cast<double>(codebook.size()));

  EcvqResult out;
  double prev_j = std::numeric_limits<double>::infinity();
  size_t iter = 0;
  std::vector<double> sums;
  std::vector<double> mass;
  std::vector<uint32_t> assign(n);

  for (iter = 0; iter < config.max_iterations; ++iter) {
    const size_t k = codebook.size();
    // Code lengths from current probabilities.
    std::vector<double> len(k);
    for (size_t j = 0; j < k; ++j) {
      len[j] = probs[j] > 0.0
                   ? -std::log(probs[j]) * kLog2e
                   : std::numeric_limits<double>::infinity();
    }
    // Assignment: minimize d²(x, c_j) + λ·len_j.
    sums.assign(k * dim, 0.0);
    mass.assign(k, 0.0);
    double distortion = 0.0;
    double rate_cost = 0.0;
    const double* points = data.points().data();
    for (size_t i = 0; i < n; ++i) {
      const double* x = points + i * dim;
      size_t best = 0;
      double best_cost = std::numeric_limits<double>::infinity();
      double best_d_sq = best_cost;
      for (size_t j = 0; j < k; ++j) {
        const double d_sq = SquaredL2(x, codebook.data() + j * dim, dim);
        const double cost = d_sq + config.lambda * len[j];
        if (cost < best_cost) {
          best_cost = cost;
          best_d_sq = d_sq;
          best = j;
        }
      }
      const double w = data.weight(i);
      assign[i] = static_cast<uint32_t>(best);
      distortion += w * best_d_sq;
      rate_cost += w * len[best];
      double* sum = sums.data() + best * dim;
      for (size_t d = 0; d < dim; ++d) sum[d] += w * x[d];
      mass[best] += w;
    }

    // Centroid + probability update; drop starved codewords.
    Dataset next(dim);
    std::vector<double> next_probs;
    std::vector<double> point(dim);
    for (size_t j = 0; j < k; ++j) {
      const double p = mass[j] / total_weight;
      if (mass[j] <= 0.0 || p < config.min_probability) continue;
      for (size_t d = 0; d < dim; ++d) {
        point[d] = sums[j * dim + d] / mass[j];
      }
      next.Append(point);
      next_probs.push_back(p);
    }
    if (next.empty()) {
      return Status::Internal("all codewords starved (lambda too large?)");
    }
    codebook = std::move(next);
    probs = std::move(next_probs);

    const double lagrangian = distortion + config.lambda * rate_cost;
    out.distortion = distortion;
    out.rate_bits = total_weight > 0.0 ? rate_cost / total_weight : 0.0;
    out.lagrangian = lagrangian;
    if (iter > 0 && prev_j - lagrangian <= config.epsilon &&
        codebook.size() == probs.size()) {
      // Converged (note: a starvation event strictly lowers J next round,
      // so convergence naturally waits for the codebook to stabilize).
      if (prev_j >= lagrangian) {
        ++iter;
        break;
      }
    }
    prev_j = lagrangian;
  }

  // Final hard stats against the surviving codebook.
  const size_t k = codebook.size();
  std::vector<double> weights(k, 0.0);
  {
    std::vector<double> dist2(n);
    AssignNearest(data.points().data(), n, dim, codebook, assign.data(),
                  dist2.data());
    double distortion = 0.0;
    for (size_t i = 0; i < n; ++i) {
      weights[assign[i]] += data.weight(i);
      distortion += data.weight(i) * dist2[i];
    }
    out.distortion = distortion;
    double entropy = 0.0;
    for (double w : weights) {
      if (w > 0.0) {
        const double p = w / total_weight;
        entropy -= p * std::log(p) * kLog2e;
      }
    }
    out.rate_bits = entropy;
    out.lagrangian =
        distortion + config.lambda * entropy * total_weight;
  }
  out.model.centroids = std::move(codebook);
  out.model.weights = std::move(weights);
  out.model.sse = out.distortion;
  out.model.mse_per_point =
      total_weight > 0.0 ? out.distortion / total_weight : 0.0;
  out.model.iterations = iter;
  out.model.converged = iter < config.max_iterations;
  out.effective_k = out.model.k();
  out.iterations = iter;
  return out;
}

Result<EcvqResult> FitEcvq(const Dataset& data, const EcvqConfig& config) {
  return FitEcvq(WeightedDataset::FromUnweighted(data), config);
}

}  // namespace pmkm
