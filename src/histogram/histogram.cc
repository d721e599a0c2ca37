#include "histogram/histogram.h"

#include <cmath>

#include "cluster/distance.h"
#include "cluster/kernels/kernel.h"
#include "cluster/metrics.h"

namespace pmkm {

Result<MultivariateHistogram> MultivariateHistogram::Build(
    const ClusteringModel& model, const Dataset& cell) {
  if (model.k() == 0) return Status::InvalidArgument("empty model");
  if (model.dim() != cell.dim()) {
    return Status::InvalidArgument("model/cell dimensionality mismatch");
  }
  const size_t k = model.k();
  const size_t dim = cell.dim();

  // One pass: per-cluster count, sum and sum of squares.
  std::vector<uint32_t> assign(cell.size());
  std::vector<double> dist2(cell.size());
  AssignNearest(cell.data(), cell.size(), dim, model.centroids,
                assign.data(), dist2.data());
  std::vector<double> count(k, 0.0);
  std::vector<double> sum(k * dim, 0.0);
  std::vector<double> sum_sq(k * dim, 0.0);
  for (size_t i = 0; i < cell.size(); ++i) {
    const double* x = cell.data() + i * dim;
    const size_t j = assign[i];
    count[j] += 1.0;
    for (size_t d = 0; d < dim; ++d) {
      sum[j * dim + d] += x[d];
      sum_sq[j * dim + d] += x[d] * x[d];
    }
  }

  MultivariateHistogram hist(dim);
  hist.representatives_ = Dataset(dim);
  for (size_t j = 0; j < k; ++j) {
    if (count[j] <= 0.0) continue;
    HistogramBucket b;
    b.count = count[j];
    b.representative.resize(dim);
    b.stddev.resize(dim);
    for (size_t d = 0; d < dim; ++d) {
      const double mean = sum[j * dim + d] / count[j];
      b.representative[d] = mean;
      const double var = sum_sq[j * dim + d] / count[j] - mean * mean;
      b.stddev[d] = var > 0.0 ? std::sqrt(var) : 0.0;
    }
    hist.representatives_.Append(b.representative);
    hist.buckets_.push_back(std::move(b));
  }
  if (hist.buckets_.empty()) {
    return Status::InvalidArgument("cell is empty");
  }
  return hist;
}

Result<MultivariateHistogram> MultivariateHistogram::FromModel(
    const ClusteringModel& model) {
  if (model.k() == 0) return Status::InvalidArgument("empty model");
  MultivariateHistogram hist(model.dim());
  hist.representatives_ = Dataset(model.dim());
  for (size_t j = 0; j < model.k(); ++j) {
    if (model.weights.size() == model.k() && model.weights[j] <= 0.0) {
      continue;
    }
    HistogramBucket b;
    const auto row = model.centroids.Row(j);
    b.representative.assign(row.begin(), row.end());
    b.stddev.assign(model.dim(), 0.0);
    b.count = model.weights.size() == model.k() ? model.weights[j] : 1.0;
    hist.representatives_.Append(b.representative);
    hist.buckets_.push_back(std::move(b));
  }
  if (hist.buckets_.empty()) {
    return Status::InvalidArgument("model has no weighted centroids");
  }
  return hist;
}

double MultivariateHistogram::total_count() const {
  double total = 0.0;
  for (const auto& b : buckets_) total += b.count;
  return total;
}

size_t MultivariateHistogram::Encode(std::span<const double> point) const {
  PMKM_CHECK(point.size() == dim_);
  return NearestCentroidIndex(point, representatives_);
}

std::span<const double> MultivariateHistogram::Decode(size_t id) const {
  PMKM_CHECK(id < buckets_.size());
  return buckets_[id].representative;
}

double MultivariateHistogram::ReconstructionMse(const Dataset& data) const {
  PMKM_CHECK(data.dim() == dim_);
  PMKM_CHECK(!data.empty());
  return MsePerPoint(representatives_, data);
}

Dataset MultivariateHistogram::SampleReconstruction(size_t n,
                                                    Rng* rng) const {
  const double total = total_count();
  Dataset out(dim_);
  out.Reserve(n);
  std::vector<double> point(dim_);
  for (size_t i = 0; i < n; ++i) {
    double u = rng->UniformDouble() * total;
    size_t j = buckets_.size() - 1;
    for (size_t b = 0; b < buckets_.size(); ++b) {
      u -= buckets_[b].count;
      if (u <= 0.0) {
        j = b;
        break;
      }
    }
    for (size_t d = 0; d < dim_; ++d) {
      point[d] = rng->Normal(buckets_[j].representative[d],
                             buckets_[j].stddev[d]);
    }
    out.Append(point);
  }
  return out;
}

size_t MultivariateHistogram::CompressedBytes() const {
  // representative + stddev per coordinate, plus the count.
  return buckets_.size() * (dim_ * 2 * sizeof(double) + sizeof(double));
}

double MultivariateHistogram::CompressionRatio(
    size_t original_points) const {
  const double original =
      static_cast<double>(original_points) * dim_ * sizeof(double);
  return original / static_cast<double>(CompressedBytes());
}

}  // namespace pmkm
