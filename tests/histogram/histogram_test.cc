#include "histogram/histogram.h"

#include <gtest/gtest.h>

#include <cmath>

#include "cluster/kmeans.h"
#include "data/generator.h"
#include "data/synthetic.h"

namespace pmkm {
namespace {

ClusteringModel FitModel(const Dataset& cell, size_t k) {
  KMeansConfig config;
  config.k = k;
  config.restarts = 3;
  auto model = KMeans(config).Fit(cell);
  PMKM_CHECK(model.ok());
  return std::move(model).value();
}

TEST(HistogramTest, BuildValidates) {
  Rng rng(1);
  const Dataset cell = GenerateMisrLikeCell(500, &rng);
  ClusteringModel empty;
  EXPECT_TRUE(MultivariateHistogram::Build(empty, cell)
                  .status()
                  .IsInvalidArgument());

  const ClusteringModel model = FitModel(cell, 5);
  const Dataset wrong_dim = GenerateUniform(10, 3, 0, 1, &rng);
  EXPECT_TRUE(MultivariateHistogram::Build(model, wrong_dim)
                  .status()
                  .IsInvalidArgument());
}

TEST(HistogramTest, CountsSumToCellSize) {
  Rng rng(2);
  const Dataset cell = GenerateMisrLikeCell(1200, &rng);
  auto hist = MultivariateHistogram::Build(FitModel(cell, 10), cell);
  ASSERT_TRUE(hist.ok());
  EXPECT_NEAR(hist->total_count(), 1200.0, 1e-9);
  EXPECT_LE(hist->num_buckets(), 10u);
  for (const auto& b : hist->buckets()) {
    EXPECT_GT(b.count, 0.0);
  }
}

TEST(HistogramTest, EncodeDecodeRoundTripsToNearestBucket) {
  Rng rng(3);
  const Dataset cell = GenerateMisrLikeCell(800, &rng);
  auto hist = MultivariateHistogram::Build(FitModel(cell, 8), cell);
  ASSERT_TRUE(hist.ok());
  for (size_t i = 0; i < 20; ++i) {
    const size_t id = hist->Encode(cell.Row(i));
    EXPECT_LT(id, hist->num_buckets());
    const auto rep = hist->Decode(id);
    EXPECT_EQ(rep.size(), cell.dim());
  }
}

TEST(HistogramTest, ReconstructionMseMatchesClusterQuality) {
  Rng rng(4);
  const Dataset cell = GenerateMisrLikeCell(1000, &rng);
  const ClusteringModel model = FitModel(cell, 12);
  auto hist = MultivariateHistogram::Build(model, cell);
  ASSERT_TRUE(hist.ok());
  // Bucket representatives are cluster means of assigned points, which is
  // exactly what minimizes in-bucket MSE — the histogram error must be no
  // worse than the model's per-point error.
  EXPECT_LE(hist->ReconstructionMse(cell),
            model.mse_per_point * (1.0 + 1e-9));
}

TEST(HistogramTest, MoreBucketsLowerError) {
  Rng rng(5);
  const Dataset cell = GenerateMisrLikeCell(2000, &rng);
  auto coarse = MultivariateHistogram::Build(FitModel(cell, 4), cell);
  auto fine = MultivariateHistogram::Build(FitModel(cell, 32), cell);
  ASSERT_TRUE(coarse.ok() && fine.ok());
  EXPECT_LT(fine->ReconstructionMse(cell),
            coarse->ReconstructionMse(cell));
}

TEST(HistogramTest, CompressionRatioScales) {
  Rng rng(6);
  const Dataset cell = GenerateMisrLikeCell(20000, &rng);
  auto hist = MultivariateHistogram::Build(FitModel(cell, 40), cell);
  ASSERT_TRUE(hist.ok());
  // 20k×6 doubles vs ≤40 buckets × (2·6+1) doubles: ≥ ~200×.
  EXPECT_GT(hist->CompressionRatio(20000), 100.0);
  EXPECT_EQ(hist->CompressedBytes(),
            hist->num_buckets() * (6 * 2 + 1) * sizeof(double));
}

TEST(HistogramTest, SampleReconstructionMatchesMoments) {
  // Build from a simple two-blob cell; samples from the histogram must
  // reproduce the blob means and mass split.
  Rng rng(7);
  Dataset cell(1);
  for (int i = 0; i < 3000; ++i) {
    cell.Append(std::vector<double>{rng.Normal(0.0, 1.0)});
  }
  for (int i = 0; i < 1000; ++i) {
    cell.Append(std::vector<double>{rng.Normal(100.0, 1.0)});
  }
  auto hist = MultivariateHistogram::Build(FitModel(cell, 2), cell);
  ASSERT_TRUE(hist.ok());
  Rng sample_rng(8);
  const Dataset sample = hist->SampleReconstruction(10000, &sample_rng);
  size_t low = 0;
  for (size_t i = 0; i < sample.size(); ++i) {
    if (sample(i, 0) < 50.0) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / 10000.0, 0.75, 0.03);
}

TEST(HistogramTest, FromModelUsesWeightsAndZeroSpread) {
  ClusteringModel model;
  model.centroids = Dataset(2);
  model.centroids.Append(std::vector<double>{1.0, 2.0});
  model.centroids.Append(std::vector<double>{5.0, 6.0});
  model.weights = {30.0, 70.0};
  auto hist = MultivariateHistogram::FromModel(model);
  ASSERT_TRUE(hist.ok());
  EXPECT_EQ(hist->num_buckets(), 2u);
  EXPECT_DOUBLE_EQ(hist->total_count(), 100.0);
  EXPECT_DOUBLE_EQ(hist->buckets()[0].stddev[0], 0.0);
}

TEST(HistogramTest, FromModelDropsZeroWeightBuckets) {
  ClusteringModel model;
  model.centroids = Dataset(1);
  model.centroids.Append(std::vector<double>{1.0});
  model.centroids.Append(std::vector<double>{2.0});
  model.weights = {10.0, 0.0};
  auto hist = MultivariateHistogram::FromModel(model);
  ASSERT_TRUE(hist.ok());
  EXPECT_EQ(hist->num_buckets(), 1u);
}

}  // namespace
}  // namespace pmkm
