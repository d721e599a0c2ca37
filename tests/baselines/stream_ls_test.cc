#include "baselines/stream_ls.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cluster/distance.h"
#include "data/generator.h"
#include "data/synthetic.h"

namespace pmkm {
namespace {

StreamLsConfig Config(size_t k, size_t chunk = 500) {
  StreamLsConfig config;
  config.k = k;
  config.chunk_points = chunk;
  config.max_sweeps = 5;
  return config;
}

TEST(KMedianCostTest, KnownValue) {
  Dataset medians(1);
  medians.Append(std::vector<double>{0.0});
  WeightedDataset data(1);
  data.Append(std::vector<double>{3.0}, 2.0);   // 2·3
  data.Append(std::vector<double>{-4.0}, 1.0);  // 1·4
  EXPECT_DOUBLE_EQ(KMedianCost(medians, data), 10.0);
}

TEST(LocalSearchTest, EmptyChunkRejected) {
  Rng rng(1);
  EXPECT_TRUE(LocalSearchKMedian(WeightedDataset(2), Config(3), &rng)
                  .status()
                  .IsInvalidArgument());
}

TEST(LocalSearchTest, TinyChunkPassesThrough) {
  Rng rng(2);
  WeightedDataset data(1);
  data.Append(std::vector<double>{1.0}, 2.0);
  data.Append(std::vector<double>{5.0}, 3.0);
  auto medians = LocalSearchKMedian(data, Config(5), &rng);
  ASSERT_TRUE(medians.ok());
  EXPECT_EQ(medians->size(), 2u);
  EXPECT_DOUBLE_EQ(medians->TotalWeight(), 5.0);
}

TEST(LocalSearchTest, MediansAreInputPoints) {
  Rng rng(3);
  WeightedDataset data(1);
  for (int i = 0; i < 100; ++i) {
    data.Append(std::vector<double>{static_cast<double>(i)}, 1.0);
  }
  auto medians = LocalSearchKMedian(data, Config(4), &rng);
  ASSERT_TRUE(medians.ok());
  for (size_t j = 0; j < medians->size(); ++j) {
    const double v = medians->Row(j)[0];
    EXPECT_DOUBLE_EQ(v, std::round(v));  // integers in, integers out
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 99.0);
  }
}

TEST(LocalSearchTest, MassIsConserved) {
  Rng rng(4);
  WeightedDataset data(2);
  double total = 0.0;
  for (int i = 0; i < 300; ++i) {
    const double w = 1.0 + rng.UniformInt(5);
    data.Append(std::vector<double>{rng.Normal(), rng.Normal()}, w);
    total += w;
  }
  auto medians = LocalSearchKMedian(data, Config(6), &rng);
  ASSERT_TRUE(medians.ok());
  EXPECT_NEAR(medians->TotalWeight(), total, 1e-9);
}

TEST(LocalSearchTest, FindsSeparatedBlobs) {
  Rng rng(5);
  WeightedDataset data(1);
  for (int i = 0; i < 150; ++i) {
    data.Append(std::vector<double>{rng.Normal(0.0, 1.0)}, 1.0);
    data.Append(std::vector<double>{rng.Normal(500.0, 1.0)}, 1.0);
  }
  StreamLsConfig config = Config(2);
  auto medians = LocalSearchKMedian(data, config, &rng);
  ASSERT_TRUE(medians.ok());
  ASSERT_EQ(medians->size(), 2u);
  std::vector<double> c{medians->Row(0)[0], medians->Row(1)[0]};
  std::sort(c.begin(), c.end());
  EXPECT_LT(std::abs(c[0]), 5.0);
  EXPECT_LT(std::abs(c[1] - 500.0), 5.0);
  // Each blob carries ~half the mass.
  EXPECT_NEAR(medians->weight(0), 150.0, 10.0);
}

TEST(StreamLocalSearchTest, ProcessesChunksAndRetains) {
  Rng rng(6);
  StreamLocalSearch stream(6, Config(5, 400));
  const Dataset data = GenerateMisrLikeCell(2000, &rng);
  ASSERT_TRUE(stream.Append(data).ok());
  // 5 full chunks of 400 → 5·k retained.
  EXPECT_EQ(stream.retained_medians(), 25u);
}

TEST(StreamLocalSearchTest, FinishWithoutDataFails) {
  StreamLocalSearch stream(2, Config(3));
  EXPECT_TRUE(stream.Finish().status().IsFailedPrecondition());
}

TEST(StreamLocalSearchTest, FinishProducesKCenters) {
  Rng rng(7);
  StreamLocalSearch stream(6, Config(8, 300));
  ASSERT_TRUE(stream.Append(GenerateMisrLikeCell(1500, &rng)).ok());
  auto model = stream.Finish();
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_LE(model->k(), 8u);
  EXPECT_GE(model->k(), 1u);
  double mass = 0.0;
  for (double w : model->weights) mass += w;
  EXPECT_NEAR(mass, 1500.0, 1e-6);
}

TEST(StreamLocalSearchTest, RereductionBoundsRetainedSet) {
  Rng rng(8);
  StreamLsConfig config = Config(10, 100);
  config.max_retained = 30;
  StreamLocalSearch stream(6, config);
  ASSERT_TRUE(stream.Append(GenerateMisrLikeCell(2000, &rng)).ok());
  EXPECT_LE(stream.retained_medians(), 30u);
}

TEST(StreamLocalSearchTest, DimensionMismatchRejected) {
  StreamLocalSearch stream(3, Config(2));
  Rng rng(9);
  EXPECT_TRUE(stream.Append(GenerateUniform(10, 2, 0, 1, &rng))
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace pmkm
