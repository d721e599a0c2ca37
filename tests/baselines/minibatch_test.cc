#include "baselines/minibatch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cluster/distance.h"
#include "cluster/kmeans.h"
#include "cluster/metrics.h"
#include "data/generator.h"
#include "data/synthetic.h"

namespace pmkm {
namespace {

MiniBatchConfig Config(size_t k) {
  MiniBatchConfig config;
  config.k = k;
  return config;
}

TEST(MiniBatchTest, Validation) {
  Rng rng(1);
  const Dataset data = GenerateUniform(10, 2, 0, 1, &rng);
  MiniBatchConfig zero_k = Config(0);
  EXPECT_TRUE(MiniBatchKMeans(data, zero_k).status().IsInvalidArgument());
  MiniBatchConfig big_k = Config(100);
  EXPECT_TRUE(MiniBatchKMeans(data, big_k).status().IsInvalidArgument());
  MiniBatchConfig zero_batch = Config(2);
  zero_batch.batch_size = 0;
  EXPECT_TRUE(
      MiniBatchKMeans(data, zero_batch).status().IsInvalidArgument());
}

TEST(MiniBatchTest, RecoversSeparatedClusters) {
  Rng rng(2);
  std::vector<std::vector<double>> centers;
  const Dataset data =
      GenerateSeparatedClusters(4000, 3, 5, 200.0, 1.0, &rng, &centers);
  auto model = MiniBatchKMeans(data, Config(5));
  ASSERT_TRUE(model.ok());
  for (const auto& truth : centers) {
    double best = 1e30;
    for (size_t j = 0; j < model->k(); ++j) {
      best = std::min(best,
                      SquaredL2(std::span<const double>(truth),
                                model->centroids.Row(j)));
    }
    EXPECT_LT(std::sqrt(best), 3.0);
  }
}

TEST(MiniBatchTest, DeterministicForSeed) {
  Rng rng(3);
  const Dataset data = GenerateMisrLikeCell(2000, &rng);
  auto a = MiniBatchKMeans(data, Config(8));
  auto b = MiniBatchKMeans(data, Config(8));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->centroids, b->centroids);
}

TEST(MiniBatchTest, SseEvaluatedOnFullData) {
  Rng rng(4);
  const Dataset data = GenerateMisrLikeCell(1500, &rng);
  auto model = MiniBatchKMeans(data, Config(10));
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->sse, Sse(model->centroids, data),
              1e-6 * (1.0 + model->sse));
  EXPECT_NEAR(model->mse_per_point, model->sse / 1500.0, 1e-12);
  double mass = 0.0;
  for (double w : model->weights) mass += w;
  EXPECT_NEAR(mass, 1500.0, 1e-9);
}

TEST(MiniBatchTest, QualityWithinFactorOfFullLloyd) {
  Rng rng(5);
  const Dataset data = GenerateMisrLikeCell(4000, &rng);
  auto mb = MiniBatchKMeans(data, Config(20));
  ASSERT_TRUE(mb.ok());
  KMeansConfig kconfig;
  kconfig.k = 20;
  kconfig.restarts = 3;
  auto full = KMeans(kconfig).Fit(data);
  ASSERT_TRUE(full.ok());
  EXPECT_LT(mb->sse, 3.0 * full->sse);
}

TEST(MiniBatchTest, StopsEarlyWhenConverged) {
  // Trivially clusterable data: two tight blobs, k=2. SGD steps shrink as
  // 1/count, so movement falls under tol well before max_batches.
  Rng rng(6);
  Dataset data(1);
  for (int i = 0; i < 500; ++i) {
    data.Append(std::vector<double>{rng.Normal(0.0, 0.01)});
    data.Append(std::vector<double>{rng.Normal(100.0, 0.01)});
  }
  MiniBatchConfig config = Config(2);
  config.max_batches = 10000;
  config.tol = 1e-3;
  auto model = MiniBatchKMeans(data, config);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(model->converged);
  EXPECT_LT(model->iterations, 10000u);
}

}  // namespace
}  // namespace pmkm
