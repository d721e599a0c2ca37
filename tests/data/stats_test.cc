#include "data/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/generator.h"
#include "data/synthetic.h"

namespace pmkm {
namespace {

TEST(StatsTest, EmptyDatasetRejected) {
  EXPECT_TRUE(ProfileDataset(Dataset(3)).status().IsInvalidArgument());
}

TEST(StatsTest, KnownMoments) {
  Dataset data(2);
  data.Append(std::vector<double>{1.0, 10.0});
  data.Append(std::vector<double>{3.0, 10.0});
  data.Append(std::vector<double>{5.0, 10.0});
  auto profile = ProfileDataset(data);
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->num_points, 3u);
  EXPECT_DOUBLE_EQ(profile->attributes[0].min, 1.0);
  EXPECT_DOUBLE_EQ(profile->attributes[0].max, 5.0);
  EXPECT_DOUBLE_EQ(profile->attributes[0].mean, 3.0);
  // Population stddev of {1,3,5} = sqrt(8/3).
  EXPECT_NEAR(profile->attributes[0].stddev, std::sqrt(8.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(profile->attributes[1].stddev, 0.0);
}

TEST(StatsTest, PerfectCorrelation) {
  Dataset data(2);
  for (int i = 0; i < 20; ++i) {
    data.Append(std::vector<double>{static_cast<double>(i),
                                    2.0 * i + 5.0});
  }
  auto profile = ProfileDataset(data);
  ASSERT_TRUE(profile.ok());
  EXPECT_NEAR(profile->Correlation(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(profile->Correlation(1, 0), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(profile->Correlation(0, 0), 1.0);
}

TEST(StatsTest, AntiCorrelation) {
  Dataset data(2);
  for (int i = 0; i < 20; ++i) {
    data.Append(std::vector<double>{static_cast<double>(i),
                                    -3.0 * i});
  }
  auto profile = ProfileDataset(data);
  ASSERT_TRUE(profile.ok());
  EXPECT_NEAR(profile->Correlation(0, 1), -1.0, 1e-12);
}

TEST(StatsTest, ZeroVarianceAttributeCorrelatesZero) {
  Dataset data(2);
  for (int i = 0; i < 10; ++i) {
    data.Append(std::vector<double>{static_cast<double>(i), 7.0});
  }
  auto profile = ProfileDataset(data);
  ASSERT_TRUE(profile.ok());
  EXPECT_DOUBLE_EQ(profile->Correlation(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(profile->Correlation(1, 1), 1.0);
}

TEST(StatsTest, IndependentAttributesNearZero) {
  Rng rng(1);
  const Dataset data = GenerateUniform(20000, 2, 0, 1, &rng);
  auto profile = ProfileDataset(data);
  ASSERT_TRUE(profile.ok());
  EXPECT_NEAR(profile->Correlation(0, 1), 0.0, 0.03);
  EXPECT_NEAR(profile->attributes[0].mean, 0.5, 0.01);
  EXPECT_NEAR(profile->attributes[0].stddev, std::sqrt(1.0 / 12.0), 0.01);
}

TEST(StatsTest, MisrCellsShowCrossChannelCorrelation) {
  // The workload property the compression approach relies on: MISR-like
  // radiance channels must be strongly correlated.
  Rng rng(2);
  const Dataset cell = GenerateMisrLikeCell(10000, &rng);
  auto profile = ProfileDataset(cell);
  ASSERT_TRUE(profile.ok());
  double min_corr = 1.0;
  for (size_t a = 0; a < profile->dim; ++a) {
    for (size_t b = a + 1; b < profile->dim; ++b) {
      min_corr = std::min(min_corr, profile->Correlation(a, b));
    }
  }
  EXPECT_GT(min_corr, 0.3);
}

TEST(StatsTest, ToStringMentionsEverything) {
  Dataset data(2);
  data.Append(std::vector<double>{1.0, 2.0});
  data.Append(std::vector<double>{3.0, 4.0});
  auto profile = ProfileDataset(data);
  ASSERT_TRUE(profile.ok());
  const std::string text = profile->ToString();
  EXPECT_NE(text.find("2 points x 2 attributes"), std::string::npos);
  EXPECT_NE(text.find("correlation"), std::string::npos);
}

}  // namespace
}  // namespace pmkm
