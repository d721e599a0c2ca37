#include "cluster/partial.h"

#include <gtest/gtest.h>

#include <vector>

#include "cluster/metrics.h"
#include "data/generator.h"
#include "data/synthetic.h"

namespace pmkm {
namespace {

KMeansConfig Config(size_t k, size_t restarts = 3, uint64_t seed = 1) {
  KMeansConfig config;
  config.k = k;
  config.restarts = restarts;
  config.seed = seed;
  return config;
}

TEST(PartialKMeansTest, EmptyPartitionRejected) {
  const PartialKMeans partial(Config(4));
  EXPECT_TRUE(partial.Cluster(Dataset(2), 0).status().IsInvalidArgument());
}

TEST(PartialKMeansTest, WeightsSumToPartitionSize) {
  Rng rng(1);
  const Dataset partition = GenerateMisrLikeCell(1000, &rng);
  const PartialKMeans partial(Config(10));
  auto result = partial.Cluster(partition, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->input_points, 1000u);
  EXPECT_NEAR(result->centroids.TotalWeight(), 1000.0, 1e-9);
  EXPECT_LE(result->centroids.size(), 10u);
  for (size_t i = 0; i < result->centroids.size(); ++i) {
    EXPECT_GT(result->centroids.weight(i), 0.0);
  }
}

TEST(PartialKMeansTest, DegenerateChunkPassesThrough) {
  Rng rng(2);
  const Dataset partition = GenerateUniform(7, 3, 0.0, 1.0, &rng);
  const PartialKMeans partial(Config(10));
  auto result = partial.Cluster(partition, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->centroids.size(), 7u);
  EXPECT_DOUBLE_EQ(result->centroids.TotalWeight(), 7.0);
  EXPECT_DOUBLE_EQ(result->sse, 0.0);
  EXPECT_EQ(result->centroids.points(), partition);
}

TEST(PartialKMeansTest, ChunkExactlyKPassesThrough) {
  Rng rng(3);
  const Dataset partition = GenerateUniform(10, 3, 0.0, 1.0, &rng);
  const PartialKMeans partial(Config(10));
  auto result = partial.Cluster(partition, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->centroids.size(), 10u);
  EXPECT_DOUBLE_EQ(result->sse, 0.0);
}

TEST(PartialKMeansTest, DifferentPartitionIdsDecorrelateSeeds) {
  Rng rng(4);
  const Dataset partition = GenerateMisrLikeCell(600, &rng);
  const PartialKMeans partial(Config(8));
  auto a = partial.Cluster(partition, 0);
  auto b = partial.Cluster(partition, 1);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->centroids.points(), b->centroids.points());
}

TEST(PartialKMeansTest, SamePartitionIdIsDeterministic) {
  Rng rng(5);
  const Dataset partition = GenerateMisrLikeCell(600, &rng);
  const PartialKMeans partial(Config(8));
  auto a = partial.Cluster(partition, 3);
  auto b = partial.Cluster(partition, 3);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->centroids.points(), b->centroids.points());
  EXPECT_EQ(a->sse, b->sse);
}

TEST(PartialKMeansTest, DegenerateWeightedChunkKeepsItsWeights) {
  WeightedDataset partition(2);
  partition.Append(std::vector<double>{0.0, 1.0}, 2.0);
  partition.Append(std::vector<double>{3.0, 4.0}, 5.0);
  const PartialKMeans partial(Config(4));
  auto result = partial.Cluster(partition, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->centroids.points(), partition.points());
  EXPECT_EQ(result->centroids.weights(), partition.weights());
}

TEST(PartialKMeansTest, SseMatchesCentroidQuality) {
  Rng rng(6);
  const Dataset partition = GenerateMisrLikeCell(800, &rng);
  const PartialKMeans partial(Config(12));
  auto result = partial.Cluster(partition, 0);
  ASSERT_TRUE(result.ok());
  // The reported SSE equals an independent evaluation of the emitted
  // centroids on the partition.
  EXPECT_NEAR(result->sse,
              Sse(result->centroids.points(), partition),
              1e-6 * (1.0 + result->sse));
}

}  // namespace
}  // namespace pmkm
