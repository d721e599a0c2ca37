#include "cluster/seeding.h"

#include <gtest/gtest.h>

#include <set>

#include "cluster/kmeans_plus_plus.h"
#include "data/generator.h"

namespace pmkm {
namespace {

WeightedDataset MakeWeighted(std::vector<double> weights) {
  WeightedDataset w(1);
  for (size_t i = 0; i < weights.size(); ++i) {
    w.Append(std::vector<double>{static_cast<double>(i)}, weights[i]);
  }
  return w;
}

TEST(SeedingTest, RejectsInvalidRequests) {
  Rng rng(1);
  const auto data = MakeWeighted({1, 1, 1});
  EXPECT_TRUE(RandomSeeds(data, 0, &rng).status().IsInvalidArgument());
  EXPECT_TRUE(RandomSeeds(data, 4, &rng).status().IsInvalidArgument());
  EXPECT_TRUE(HeaviestSeeds(data, 0).status().IsInvalidArgument());
  EXPECT_TRUE(HeaviestSeeds(data, 4).status().IsInvalidArgument());
  EXPECT_TRUE(
      KMeansPlusPlusSeeds(data, 0, &rng).status().IsInvalidArgument());
  EXPECT_TRUE(
      KMeansPlusPlusSeeds(data, 4, &rng).status().IsInvalidArgument());
}

TEST(SeedingTest, RandomSeedsAreDistinctDataPoints) {
  Rng rng(2);
  const auto data = MakeWeighted(std::vector<double>(20, 1.0));
  auto seeds = RandomSeeds(data, 10, &rng);
  ASSERT_TRUE(seeds.ok());
  ASSERT_EQ(seeds->size(), 10u);
  std::set<double> values;
  for (size_t i = 0; i < seeds->size(); ++i) {
    values.insert((*seeds)(i, 0));
    // Must be one of the data values 0..19.
    EXPECT_GE((*seeds)(i, 0), 0.0);
    EXPECT_LE((*seeds)(i, 0), 19.0);
  }
  EXPECT_EQ(values.size(), 10u);  // distinct indices
}

TEST(SeedingTest, HeaviestWeightPicksTopK) {
  const auto data = MakeWeighted({5.0, 50.0, 1.0, 30.0, 2.0});
  auto seeds = HeaviestSeeds(data, 2);
  ASSERT_TRUE(seeds.ok());
  std::set<double> values;
  for (size_t i = 0; i < seeds->size(); ++i) values.insert((*seeds)(i, 0));
  // Indices 1 (w=50) and 3 (w=30).
  EXPECT_TRUE(values.count(1.0));
  EXPECT_TRUE(values.count(3.0));
}

TEST(SeedingTest, HeaviestWeightIsDeterministic) {
  const auto data = MakeWeighted({5.0, 50.0, 1.0, 30.0, 2.0});
  auto a = HeaviestSeeds(data, 3);
  auto b = HeaviestSeeds(data, 3);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(SeedingTest, HeaviestWeightTieBreaksByIndex) {
  const auto data = MakeWeighted({7.0, 7.0, 7.0, 7.0});
  auto seeds = HeaviestSeeds(data, 2);
  ASSERT_TRUE(seeds.ok());
  EXPECT_DOUBLE_EQ((*seeds)(0, 0), 0.0);
  EXPECT_DOUBLE_EQ((*seeds)(1, 0), 1.0);
}

TEST(SeedingTest, KMeansPlusPlusSpreadsSeeds) {
  // Two well-separated blobs: with k=2, k-means++ should almost always put
  // one seed in each blob, while the blobs are 1000 apart.
  Rng rng(5);
  WeightedDataset data(1);
  for (int i = 0; i < 50; ++i) {
    data.Append(std::vector<double>{rng.Normal(0.0, 1.0)}, 1.0);
    data.Append(std::vector<double>{rng.Normal(1000.0, 1.0)}, 1.0);
  }
  int both_blobs = 0;
  for (int trial = 0; trial < 20; ++trial) {
    Rng trial_rng(100 + trial);
    auto seeds = KMeansPlusPlusSeeds(data, 2, &trial_rng);
    ASSERT_TRUE(seeds.ok());
    const bool a_low = (*seeds)(0, 0) < 500.0;
    const bool b_low = (*seeds)(1, 0) < 500.0;
    if (a_low != b_low) ++both_blobs;
  }
  EXPECT_GE(both_blobs, 19);
}

TEST(SeedingTest, KMeansPlusPlusHandlesDuplicatePoints) {
  Rng rng(6);
  WeightedDataset data(1);
  for (int i = 0; i < 10; ++i) {
    data.Append(std::vector<double>{42.0}, 1.0);
  }
  auto seeds = KMeansPlusPlusSeeds(data, 3, &rng);
  ASSERT_TRUE(seeds.ok());  // falls back to uniform when all D² mass is 0
  EXPECT_EQ(seeds->size(), 3u);
}

TEST(SeedingTest, KEqualsNReturnsEverything) {
  Rng rng(7);
  const auto data = MakeWeighted({1.0, 2.0, 3.0});
  const std::pair<const char*, Result<Dataset>> all[] = {
      {"random", RandomSeeds(data, 3, &rng)},
      {"heaviest", HeaviestSeeds(data, 3)},
      {"kmeans++", KMeansPlusPlusSeeds(data, 3, &rng)}};
  for (const auto& [name, seeds] : all) {
    ASSERT_TRUE(seeds.ok()) << name;
    std::set<double> values;
    for (size_t i = 0; i < seeds->size(); ++i) {
      values.insert((*seeds)(i, 0));
    }
    EXPECT_EQ(values.size(), 3u) << name;
  }
}

}  // namespace
}  // namespace pmkm
