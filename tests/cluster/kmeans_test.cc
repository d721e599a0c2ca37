#include "cluster/kmeans.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "cluster/distance.h"
#include "cluster/metrics.h"
#include "data/generator.h"
#include "data/synthetic.h"

namespace pmkm {
namespace {

KMeansConfig SmallConfig(size_t k, uint64_t seed = 1) {
  KMeansConfig config;
  config.k = k;
  config.restarts = 5;
  config.seed = seed;
  return config;
}

TEST(KMeansTest, ConfigValidation) {
  KMeansConfig config;
  config.k = 0;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
  config.k = 3;
  config.restarts = 0;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
}

TEST(KMeansTest, FewerPointsThanKFails) {
  Rng rng(1);
  const Dataset data = GenerateUniform(5, 2, 0.0, 1.0, &rng);
  const KMeans kmeans(SmallConfig(10));
  EXPECT_TRUE(kmeans.Fit(data).status().IsInvalidArgument());
}

TEST(KMeansTest, NonFiniteInputIsRejected) {
  // Every restart's SSE is non-finite, so none can be kept: an error, not
  // an OK model with no centroids.
  for (double bad : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    Rng rng(11);
    Dataset data = GenerateUniform(50, 2, 0.0, 1.0, &rng);
    data.mutable_data()[7] = bad;
    const auto model = KMeans(SmallConfig(3)).Fit(data);
    EXPECT_TRUE(model.status().IsInvalidArgument()) << bad;
  }
}

TEST(KMeansTest, RecoversWellSeparatedClusters) {
  Rng rng(2);
  std::vector<std::vector<double>> centers;
  const Dataset data =
      GenerateSeparatedClusters(2000, 4, 5, 100.0, 0.5, &rng, &centers);
  const KMeans kmeans(SmallConfig(5, 42));
  auto model = kmeans.Fit(data);
  ASSERT_TRUE(model.ok());
  ASSERT_EQ(model->k(), 5u);

  // Every true center must be within 1.0 of some fitted centroid.
  for (const auto& truth : centers) {
    double best = 1e30;
    for (size_t j = 0; j < model->k(); ++j) {
      best = std::min(best, SquaredL2(truth, model->centroids.Row(j)));
    }
    EXPECT_LT(std::sqrt(best), 1.0);
  }
  // Error per point ≈ d·σ² = 4·0.25.
  EXPECT_LT(model->mse_per_point, 2.0);
}

TEST(KMeansTest, DeterministicForSameSeed) {
  Rng rng(3);
  const Dataset data = GenerateMisrLikeCell(800, &rng);
  const KMeans a(SmallConfig(8, 7));
  const KMeans b(SmallConfig(8, 7));
  auto ma = a.Fit(data);
  auto mb = b.Fit(data);
  ASSERT_TRUE(ma.ok() && mb.ok());
  EXPECT_EQ(ma->centroids, mb->centroids);
  EXPECT_EQ(ma->sse, mb->sse);
}

TEST(KMeansTest, DifferentSeedsMayDiffer) {
  Rng rng(4);
  const Dataset data = GenerateMisrLikeCell(800, &rng);
  auto ma = KMeans(SmallConfig(8, 1)).Fit(data);
  auto mb = KMeans(SmallConfig(8, 2)).Fit(data);
  ASSERT_TRUE(ma.ok() && mb.ok());
  // Not a strict requirement of k-means, but with k=8 on a 12-modal MISR
  // cell, two seeds landing on the exact same local optimum is ~impossible.
  EXPECT_NE(ma->centroids, mb->centroids);
}

TEST(KMeansTest, MoreRestartsNeverHurt) {
  // best-of-R is monotone in R when restart r's seed stream is independent
  // of R (our Fork(r) construction guarantees the first runs coincide).
  Rng rng(5);
  const Dataset data = GenerateMisrLikeCell(1500, &rng);
  KMeansConfig one = SmallConfig(10, 33);
  one.restarts = 1;
  KMeansConfig ten = SmallConfig(10, 33);
  ten.restarts = 10;
  auto m1 = KMeans(one).Fit(data);
  auto m10 = KMeans(ten).Fit(data);
  ASSERT_TRUE(m1.ok() && m10.ok());
  EXPECT_LE(m10->sse, m1->sse * (1.0 + 1e-12));
}

TEST(KMeansTest, KEqualsNGivesZeroError) {
  Rng rng(6);
  const Dataset data = GenerateUniform(12, 3, 0.0, 100.0, &rng);
  KMeansConfig config = SmallConfig(12, 1);
  auto model = KMeans(config).Fit(data);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->sse, 0.0, 1e-9);
}

TEST(KMeansTest, KOneIsGlobalMean) {
  Rng rng(7);
  const Dataset data = GenerateUniform(200, 2, -10.0, 10.0, &rng);
  auto model = KMeans(SmallConfig(1)).Fit(data);
  ASSERT_TRUE(model.ok());
  const auto mean = data.Mean();
  EXPECT_NEAR(model->centroids(0, 0), mean[0], 1e-9);
  EXPECT_NEAR(model->centroids(0, 1), mean[1], 1e-9);
}

TEST(KMeansTest, WeightedFitRespectsWeights) {
  // Two locations; location B has 9× the weight. k=1 mean must sit at the
  // weighted mean.
  WeightedDataset data(1);
  data.Append(std::vector<double>{0.0}, 1.0);
  data.Append(std::vector<double>{10.0}, 9.0);
  KMeansConfig config = SmallConfig(1);
  auto model = KMeans(config).FitWeighted(data);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->centroids(0, 0), 9.0, 1e-9);
}

TEST(KMeansTest, WeightedEquivalentToReplication) {
  // Integer weights must behave exactly like replicated points.
  Rng rng(8);
  WeightedDataset weighted(2);
  Dataset replicated(2);
  for (int i = 0; i < 30; ++i) {
    const std::vector<double> p{rng.Uniform(0, 10), rng.Uniform(0, 10)};
    const int w = 1 + static_cast<int>(rng.UniformInt(4));
    weighted.Append(p, static_cast<double>(w));
    for (int r = 0; r < w; ++r) replicated.Append(p);
  }
  KMeansConfig config = SmallConfig(4, 55);
  auto mw = KMeans(config).FitWeighted(weighted);
  ASSERT_TRUE(mw.ok());
  // Evaluate weighted centroids on the replicated dataset and vice versa:
  // the weighted SSE over weighted data equals SSE over replicated data
  // for the same centroid set.
  EXPECT_NEAR(mw->sse, Sse(mw->centroids, replicated),
              1e-6 * (1.0 + mw->sse));
}

TEST(KMeansTest, IterationsReported) {
  Rng rng(9);
  const Dataset data = GenerateMisrLikeCell(500, &rng);
  auto model = KMeans(SmallConfig(5)).Fit(data);
  ASSERT_TRUE(model.ok());
  EXPECT_GE(model->iterations, 1u);
  EXPECT_TRUE(model->converged);
}

TEST(KMeansTest, PredictReturnsNearest) {
  Rng rng(10);
  std::vector<std::vector<double>> centers;
  const Dataset data =
      GenerateSeparatedClusters(500, 2, 3, 100.0, 0.5, &rng, &centers);
  auto model = KMeans(SmallConfig(3)).Fit(data);
  ASSERT_TRUE(model.ok());
  for (const auto& c : centers) {
    const size_t j = NearestCentroidIndex(c, model->centroids);
    EXPECT_LT(SquaredL2(std::span<const double>(c),
                        model->centroids.Row(j)),
              100.0);
  }
}

}  // namespace
}  // namespace pmkm
