// Dataset: the in-memory point container used everywhere in pmkm.
//
// Points are D-dimensional double vectors stored row-major in one contiguous
// buffer, which keeps the k-means inner loops cache-friendly and makes
// binary (de)serialization a single read/write.

#ifndef PMKM_DATA_DATASET_H_
#define PMKM_DATA_DATASET_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/result.h"
#include "common/status.h"

namespace pmkm {

/// A resizable, row-major collection of D-dimensional points.
class Dataset {
 public:
  /// Creates an empty dataset of the given dimensionality (>= 1).
  explicit Dataset(size_t dim = 1) : dim_(dim) { PMKM_CHECK(dim >= 1); }

  /// Creates a dataset from flat row-major values; values.size() must be a
  /// multiple of dim.
  static Result<Dataset> FromFlat(size_t dim, std::vector<double> values);

  size_t dim() const { return dim_; }
  size_t size() const { return values_.size() / dim_; }
  bool empty() const { return values_.empty(); }

  /// Read-only view of point i.
  std::span<const double> Row(size_t i) const {
    PMKM_DCHECK(i < size());
    return {values_.data() + i * dim_, dim_};
  }

  /// Mutable view of point i.
  std::span<double> MutableRow(size_t i) {
    PMKM_DCHECK(i < size());
    return {values_.data() + i * dim_, dim_};
  }

  /// Element access: point i, coordinate d.
  double operator()(size_t i, size_t d) const {
    PMKM_DCHECK(i < size() && d < dim_);
    return values_[i * dim_ + d];
  }
  double& operator()(size_t i, size_t d) {
    PMKM_DCHECK(i < size() && d < dim_);
    return values_[i * dim_ + d];
  }

  /// Appends one point; point.size() must equal dim().
  void Append(std::span<const double> point) {
    PMKM_DCHECK(point.size() == dim_);
    values_.insert(values_.end(), point.begin(), point.end());
  }

  /// Appends every point of `other` (same dimensionality required).
  void AppendAll(const Dataset& other) {
    PMKM_CHECK(other.dim_ == dim_);
    values_.insert(values_.end(), other.values_.begin(),
                   other.values_.end());
  }

  void Reserve(size_t num_points) { values_.reserve(num_points * dim_); }
  void Clear() { values_.clear(); }

  /// Makes this `num_points` points of `dim` coordinates in the storage it
  /// already holds, reallocating only to grow past its capacity. The
  /// coordinates are stale until the caller overwrites them.
  void Reshape(size_t dim, size_t num_points) {
    PMKM_CHECK(dim >= 1);
    dim_ = dim;
    values_.resize(num_points * dim);
  }

  const double* data() const { return values_.data(); }
  double* mutable_data() { return values_.data(); }
  const std::vector<double>& values() const { return values_; }

  /// Per-coordinate arithmetic mean of all points. Requires size() > 0.
  std::vector<double> Mean() const;

  bool operator==(const Dataset& other) const {
    return dim_ == other.dim_ && values_ == other.values_;
  }

 private:
  size_t dim_;
  std::vector<double> values_;
};

}  // namespace pmkm

#endif  // PMKM_DATA_DATASET_H_
