#include "cluster/metrics.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "cluster/experiment_metrics.h"
#include "cluster/kernels.h"
#include "cluster/kernels/kernel.h"
#include "cluster/kmeans_plus_plus.h"
#include "cluster/lloyd.h"
#include "data/generator.h"
#include "data/synthetic.h"

namespace pmkm {
namespace {

Dataset MakeCentroids(std::vector<std::vector<double>> rows) {
  Dataset d(rows[0].size());
  for (const auto& r : rows) d.Append(r);
  return d;
}

TEST(MetricsTest, SseKnownValue) {
  const Dataset centroids = MakeCentroids({{0.0}, {10.0}});
  Dataset data(1);
  for (double x : {1.0, -1.0, 11.0, 9.0}) {
    data.Append({&x, 1});
  }
  EXPECT_DOUBLE_EQ(Sse(centroids, data), 4.0);
  EXPECT_DOUBLE_EQ(MsePerPoint(centroids, data), 1.0);
}

TEST(MetricsTest, SseZeroForExactCentroids) {
  const Dataset centroids = MakeCentroids({{1.0, 2.0}, {3.0, 4.0}});
  Dataset data(2);
  data.Append(std::vector<double>{1.0, 2.0});
  data.Append(std::vector<double>{3.0, 4.0});
  EXPECT_DOUBLE_EQ(Sse(centroids, data), 0.0);
}

TEST(MetricsTest, WeightedSseScalesWithWeights) {
  const Dataset centroids = MakeCentroids({{0.0}});
  WeightedDataset data(1);
  data.Append(std::vector<double>{2.0}, 3.0);   // 3·4 = 12
  data.Append(std::vector<double>{-1.0}, 5.0);  // 5·1 = 5
  EXPECT_DOUBLE_EQ(WeightedSse(centroids, data), 17.0);
}

TEST(MetricsTest, WeightedSseWithUnitWeightsEqualsSse) {
  Rng rng(1);
  const Dataset data = GenerateUniform(200, 3, -5, 5, &rng);
  const Dataset centroids = GenerateUniform(7, 3, -5, 5, &rng);
  EXPECT_NEAR(
      WeightedSse(centroids, WeightedDataset::FromUnweighted(data)),
      Sse(centroids, data), 1e-9);
}

TEST(MetricsTest, AssignmentCountsSumToN) {
  Rng rng(2);
  const Dataset data = GenerateUniform(500, 2, 0, 100, &rng);
  const Dataset centroids = GenerateUniform(9, 2, 0, 100, &rng);
  const auto counts = AssignmentCounts(centroids, data);
  ASSERT_EQ(counts.size(), 9u);
  size_t total = 0;
  for (size_t c : counts) total += c;
  EXPECT_EQ(total, 500u);
}

TEST(MetricsTest, AssignmentCountsKnownSplit) {
  const Dataset centroids = MakeCentroids({{0.0}, {100.0}});
  Dataset data(1);
  for (double x : {1.0, 2.0, 3.0, 99.0}) data.Append({&x, 1});
  const auto counts = AssignmentCounts(centroids, data);
  EXPECT_EQ(counts[0], 3u);
  EXPECT_EQ(counts[1], 1u);
}

TEST(MetricsTest, ModelSseOnMatchesSse) {
  Rng rng(3);
  const Dataset data = GenerateUniform(300, 2, 0, 10, &rng);
  ClusteringModel model;
  model.centroids = GenerateUniform(5, 2, 0, 10, &rng);
  EXPECT_DOUBLE_EQ(ModelSseOn(model, data), Sse(model.centroids, data));
}

TEST(MetricsTest, SseHasNoCancellationAtLargeMagnitude) {
  // d² = 0.25 exactly; an expanded ‖x‖² − 2x·c + ‖c‖² form rounds it away
  // against ‖x‖² ≈ 2e16.
  const Dataset centroids = MakeCentroids({{1e8, 1e8}});
  Dataset data(2);
  data.Append(std::vector<double>{1e8 + 0.5, 1e8});
  EXPECT_EQ(Sse(centroids, data), 0.25);
}

TEST(MetricsTest, SseInvariantUnderTranslation) {
  // Shifting data and centroids by 1e8 costs each coordinate at most
  // ulp(1e8)/2 ≈ 7.5e-9 of rounding; on unit-scale offsets that is far
  // below the 1e-6 relative bound, which the expanded form misses by
  // orders of magnitude.
  Rng rng(4);
  const Dataset data = GenerateUniform(300, 3, 0, 10, &rng);
  const Dataset centroids = GenerateUniform(6, 3, 0, 10, &rng);
  auto shifted = [](const Dataset& d) {
    std::vector<double> values = d.values();
    for (double& v : values) v += 1e8;
    auto out = Dataset::FromFlat(d.dim(), std::move(values));
    PMKM_CHECK(out.ok());
    return std::move(out).value();
  };
  const double sse = Sse(centroids, data);
  EXPECT_NEAR(Sse(shifted(centroids), shifted(data)), sse, 1e-6 * sse);
}

TEST(MetricsTest, NanPointMakesSseInfinite) {
  // A point with a NaN coordinate has no finite distance to any centroid;
  // it must poison E, not vanish from it.
  const Dataset centroids = MakeCentroids({{0.0, 0.0}, {5.0, 5.0}});
  Dataset data(2);
  data.Append(std::vector<double>{1.0, 1.0});
  data.Append(
      std::vector<double>{std::numeric_limits<double>::quiet_NaN(), 1.0});
  EXPECT_EQ(Sse(centroids, data), std::numeric_limits<double>::infinity());
}

// The metrics score a model with the arithmetic that fit it: on the
// training data of a RunWeightedLloyd model, E and the per-centroid counts
// reproduce the model's own sse and weights bit for bit, whichever kernel
// trained it. The weights are summed over the fit's final assignment, so
// equal counts mean the nearest-centroid rule assigns every point as the
// fit did.
TEST(MetricsTest, MetricsAgreeWithTheFitUnderEveryKernel) {
  Rng data_rng(5);
  MisrCellSpec spec;
  const Dataset data = GenerateMisrLikeCell(3000, &data_rng, spec);
  const WeightedDataset unit = WeightedDataset::FromUnweighted(data);
  for (const DistanceKernel* kernel : AvailableKernels()) {
    SCOPED_TRACE(kernel->name());
    Rng rng(6);
    auto seeds = KMeansPlusPlusSeeds(unit, 12, &rng);
    ASSERT_TRUE(seeds.ok()) << seeds.status();
    LloydConfig config;
    config.kernel = kernel;
    auto model = RunWeightedLloyd(unit, *seeds, config);
    ASSERT_TRUE(model.ok()) << model.status();

    EXPECT_EQ(WeightedSse(model->centroids, unit), model->sse);
    EXPECT_EQ(Sse(model->centroids, data), model->sse);
    const std::vector<size_t> counts =
        AssignmentCounts(model->centroids, data);
    EXPECT_EQ(std::vector<double>(counts.begin(), counts.end()),
              model->weights);
  }
}

}  // namespace
}  // namespace pmkm
