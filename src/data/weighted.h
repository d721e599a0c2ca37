// WeightedDataset: points with per-point weights.
//
// This is the wire type between the partial and merge k-means operators: a
// partial step emits k centroids, each weighted by the number of original
// points assigned to it (paper §3.2).

#ifndef PMKM_DATA_WEIGHTED_H_
#define PMKM_DATA_WEIGHTED_H_

#include <cmath>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"

namespace pmkm {

/// A dataset where point i carries weight weights()[i] (> 0 by convention;
/// weight 0 marks a starved centroid that consumers may drop).
class WeightedDataset {
 public:
  explicit WeightedDataset(size_t dim = 1) : points_(dim) {}

  /// Wraps an existing dataset with all weights set to 1 (a plain dataset
  /// is a weighted dataset with unit weights).
  static WeightedDataset FromUnweighted(Dataset points) {
    WeightedDataset out(points.dim());
    out.weights_.assign(points.size(), 1.0);
    out.points_ = std::move(points);
    return out;
  }

  /// Wraps points and weights; sizes must match and every weight must be
  /// finite and >= 0 (zero is legal: a starved centroid).
  static Result<WeightedDataset> Create(Dataset points,
                                        std::vector<double> weights) {
    if (points.size() != weights.size()) {
      return Status::InvalidArgument(
          "weight count does not match point count");
    }
    for (size_t i = 0; i < weights.size(); ++i) {
      if (!std::isfinite(weights[i]) || weights[i] < 0.0) {
        return Status::InvalidArgument(
            "weight " + std::to_string(i) + " is " +
            std::to_string(weights[i]) + "; weights must be finite and >= 0");
      }
    }
    WeightedDataset out(points.dim());
    out.points_ = std::move(points);
    out.weights_ = std::move(weights);
    return out;
  }

  size_t dim() const { return points_.dim(); }
  size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }

  const Dataset& points() const { return points_; }
  Dataset& mutable_points() { return points_; }
  const std::vector<double>& weights() const { return weights_; }

  std::span<const double> Row(size_t i) const { return points_.Row(i); }
  double weight(size_t i) const { return weights_[i]; }

  void Append(std::span<const double> point, double weight) {
    points_.Append(point);
    weights_.push_back(weight);
  }

  /// Appends all weighted points of `other`.
  void AppendAll(const WeightedDataset& other) {
    points_.AppendAll(other.points());
    weights_.insert(weights_.end(), other.weights_.begin(),
                    other.weights_.end());
  }

  /// Sum of all weights (for a partial-k-means output this equals the
  /// partition's point count N_j, paper §3.2).
  double TotalWeight() const {
    return std::accumulate(weights_.begin(), weights_.end(), 0.0);
  }

 private:
  Dataset points_;
  std::vector<double> weights_;
};

}  // namespace pmkm

#endif  // PMKM_DATA_WEIGHTED_H_
