#include "baselines/birch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cluster/distance.h"
#include "cluster/metrics.h"
#include "data/generator.h"
#include "data/synthetic.h"

namespace pmkm {
namespace {

BirchConfig Config(size_t k, size_t max_leaves = 128) {
  BirchConfig config;
  config.k = k;
  config.max_leaf_entries = max_leaves;
  config.global.restarts = 3;
  return config;
}

TEST(ClusteringFeatureTest, AddAndCentroid) {
  ClusteringFeature cf(2);
  cf.Add(std::vector<double>{1.0, 2.0});
  cf.Add(std::vector<double>{3.0, 4.0});
  EXPECT_DOUBLE_EQ(cf.n, 2.0);
  const auto c = cf.Centroid();
  EXPECT_DOUBLE_EQ(c[0], 2.0);
  EXPECT_DOUBLE_EQ(c[1], 3.0);
  EXPECT_DOUBLE_EQ(cf.ss, 1 + 4 + 9 + 16);
}

TEST(ClusteringFeatureTest, WeightedAdd) {
  ClusteringFeature cf(1);
  cf.Add(std::vector<double>{10.0}, 3.0);
  cf.Add(std::vector<double>{0.0}, 1.0);
  EXPECT_DOUBLE_EQ(cf.Centroid()[0], 7.5);
}

TEST(ClusteringFeatureTest, RadiusOfIdenticalPointsIsZero) {
  ClusteringFeature cf(2);
  for (int i = 0; i < 5; ++i) cf.Add(std::vector<double>{3.0, 4.0});
  EXPECT_NEAR(cf.Radius(), 0.0, 1e-9);
}

TEST(ClusteringFeatureTest, RadiusMatchesStddev) {
  // Points at ±1 around 0 in 1-D: variance 1, radius 1.
  ClusteringFeature cf(1);
  cf.Add(std::vector<double>{1.0});
  cf.Add(std::vector<double>{-1.0});
  EXPECT_NEAR(cf.Radius(), 1.0, 1e-12);
}

TEST(ClusteringFeatureTest, MergeEqualsBulkAdd) {
  ClusteringFeature a(2), b(2), all(2);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    const std::vector<double> p{rng.Normal(), rng.Normal()};
    (i % 2 == 0 ? a : b).Add(p);
    all.Add(p);
  }
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.n, all.n);
  EXPECT_NEAR(a.ss, all.ss, 1e-9);
  for (size_t d = 0; d < 2; ++d) {
    EXPECT_NEAR(a.ls[d], all.ls[d], 1e-9);
  }
}

TEST(ClusteringFeatureTest, CentroidDistance) {
  ClusteringFeature a(2), b(2);
  a.Add(std::vector<double>{0.0, 0.0});
  b.Add(std::vector<double>{3.0, 4.0});
  EXPECT_DOUBLE_EQ(a.CentroidDistanceSq(b), 25.0);
}

TEST(BirchTest, RejectsWrongDimension) {
  Birch birch(3, Config(2));
  EXPECT_TRUE(
      birch.Insert(std::vector<double>{1.0, 2.0}).IsInvalidArgument());
}

TEST(BirchTest, FinishWithoutInsertFails) {
  Birch birch(2, Config(2));
  EXPECT_TRUE(birch.Finish().status().IsFailedPrecondition());
}

TEST(BirchTest, LeafMassEqualsInsertedPoints) {
  Rng rng(2);
  const Dataset data = GenerateMisrLikeCell(2000, &rng);
  Birch birch(data.dim(), Config(10, 64));
  ASSERT_TRUE(birch.InsertAll(data).ok());
  const WeightedDataset leaves = birch.LeafCentroids();
  EXPECT_NEAR(leaves.TotalWeight(), 2000.0, 1e-6);
  EXPECT_LE(birch.num_leaf_entries(), 64u);
}

TEST(BirchTest, MemoryEnvelopeTriggersRebuilds) {
  Rng rng(3);
  const Dataset data = GenerateUniform(3000, 4, -100, 100, &rng);
  BirchConfig config = Config(5, 32);
  Birch birch(data.dim(), config);
  ASSERT_TRUE(birch.InsertAll(data).ok());
  EXPECT_LE(birch.num_leaf_entries(), 32u);
  EXPECT_GT(birch.rebuilds(), 0u);
  EXPECT_GT(birch.threshold(), 0.0);
}

TEST(BirchTest, RecoversWellSeparatedClusters) {
  Rng rng(4);
  std::vector<std::vector<double>> centers;
  const Dataset data =
      GenerateSeparatedClusters(3000, 3, 4, 200.0, 1.0, &rng, &centers);
  Birch birch(3, Config(4, 128));
  ASSERT_TRUE(birch.InsertAll(data).ok());
  auto model = birch.Finish();
  ASSERT_TRUE(model.ok()) << model.status();
  ASSERT_EQ(model->k(), 4u);
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

TEST(BirchTest, FewDistinctPointsPassThrough) {
  Birch birch(1, Config(5, 16));
  for (double x : {1.0, 2.0, 3.0}) {
    ASSERT_TRUE(birch.Insert({&x, 1}).ok());
  }
  auto model = birch.Finish();
  ASSERT_TRUE(model.ok());
  EXPECT_LE(model->k(), 3u);
  EXPECT_DOUBLE_EQ(model->sse, 0.0);
}

TEST(BirchTest, IdenticalPointsCollapseToOneLeaf) {
  Birch birch(2, Config(2, 16));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(birch.Insert(std::vector<double>{5.0, 5.0}).ok());
  }
  // Zero radius: everything absorbs into the very first leaf entry.
  EXPECT_EQ(birch.num_leaf_entries(), 1u);
  const WeightedDataset leaves = birch.LeafCentroids();
  EXPECT_DOUBLE_EQ(leaves.weight(0), 100.0);
}

TEST(BirchTest, QualityWithinFactorOfSerialKMeans) {
  Rng rng(5);
  const Dataset data = GenerateMisrLikeCell(4000, &rng);
  Birch birch(data.dim(), Config(20, 256));
  ASSERT_TRUE(birch.InsertAll(data).ok());
  auto birch_model = birch.Finish();
  ASSERT_TRUE(birch_model.ok());

  KMeansConfig kconfig;
  kconfig.k = 20;
  kconfig.restarts = 3;
  auto serial = KMeans(kconfig).Fit(data);
  ASSERT_TRUE(serial.ok());

  const double birch_sse = Sse(birch_model->centroids, data);
  EXPECT_LT(birch_sse, 5.0 * serial->sse);
}

}  // namespace
}  // namespace pmkm
