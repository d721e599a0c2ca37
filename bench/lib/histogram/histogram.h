// Multivariate histogram compression — the paper's motivating application
// (§1, §2; Braverman 2002): each 1°×1° grid cell is replaced by a set of
// non-equi-depth multivariate buckets derived from a clustering, capturing
// high-order attribute interaction that per-dimension histograms miss.
//
// A bucket is one cluster's summary: representative vector (centroid),
// point count, and per-coordinate spread. The histogram supports the
// operations the compression use case needs: quantization (encode a point
// to a bucket id), reconstruction (decode id → representative, or sample
// from the bucket's spread), fidelity and compression-ratio accounting.

#ifndef PMKM_BENCH_LIB_HISTOGRAM_HISTOGRAM_H_
#define PMKM_BENCH_LIB_HISTOGRAM_HISTOGRAM_H_

#include <vector>

#include "cluster/model.h"
#include "common/rng.h"
#include "data/dataset.h"

namespace pmkm {

/// One non-equi-depth multivariate bucket.
struct HistogramBucket {
  std::vector<double> representative;  // cluster centroid
  std::vector<double> stddev;          // per-coordinate spread
  double count = 0.0;                  // points summarized (weight)
};

/// A compressed grid cell.
class MultivariateHistogram {
 public:
  /// Builds the histogram from a fitted model and the cell's original
  /// points (one extra pass computes per-bucket spreads). Buckets with
  /// zero assigned points are dropped.
  static Result<MultivariateHistogram> Build(const ClusteringModel& model,
                                             const Dataset& cell);

  /// Builds from a model alone (no spread information; stddev = 0). Used
  /// when the original data is no longer available — e.g. built from the
  /// merge step's weighted centroids in a pure streaming pipeline.
  static Result<MultivariateHistogram> FromModel(
      const ClusteringModel& model);

  size_t num_buckets() const { return buckets_.size(); }
  size_t dim() const { return dim_; }
  double total_count() const;
  const std::vector<HistogramBucket>& buckets() const { return buckets_; }

  /// Bucket id for a point (nearest representative).
  size_t Encode(std::span<const double> point) const;

  /// The representative vector of bucket `id`.
  std::span<const double> Decode(size_t id) const;

  /// Mean squared reconstruction error of encoding then decoding `data`.
  double ReconstructionMse(const Dataset& data) const;

  /// Draws n points from the histogram treated as a Gaussian mixture with
  /// bucket frequencies as mixing weights — a synthetic stand-in for the
  /// original cell.
  Dataset SampleReconstruction(size_t n, Rng* rng) const;

  /// Serialized size in bytes (representatives + spreads + counts).
  size_t CompressedBytes() const;

  /// original bytes / compressed bytes for an N-point cell of this
  /// dimensionality.
  double CompressionRatio(size_t original_points) const;

 private:
  explicit MultivariateHistogram(size_t dim) : dim_(dim) {}

  size_t dim_;
  std::vector<HistogramBucket> buckets_;
  Dataset representatives_{1};  // cached matrix for nearest queries
};

}  // namespace pmkm

#endif  // PMKM_BENCH_LIB_HISTOGRAM_HISTOGRAM_H_
