#include "cluster/distance.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace pmkm {
namespace {

TEST(SquaredL2Test, KnownValues) {
  const std::vector<double> a{0.0, 0.0, 0.0};
  const std::vector<double> b{1.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(SquaredL2(a, b), 9.0);
  EXPECT_DOUBLE_EQ(SquaredL2(a, a), 0.0);
  EXPECT_DOUBLE_EQ(SquaredL2(b, a), 9.0);  // symmetric
}

TEST(SquaredL2Test, SingleDimension) {
  const std::vector<double> a{3.0};
  const std::vector<double> b{-1.0};
  EXPECT_DOUBLE_EQ(SquaredL2(a, b), 16.0);
}

TEST(NearestCentroidTest, PicksClosest) {
  Dataset centroids(2);
  centroids.Append(std::vector<double>{0.0, 0.0});
  centroids.Append(std::vector<double>{10.0, 0.0});
  centroids.Append(std::vector<double>{0.0, 10.0});

  const std::vector<double> p{7.0, 1.0};
  double d2 = -1.0;
  EXPECT_EQ(NearestCentroidIndex(p, centroids, &d2), 1u);
  EXPECT_DOUBLE_EQ(d2, 9.0 + 1.0);
}

TEST(NearestCentroidTest, ExactPointDistanceZero) {
  Dataset centroids(3);
  centroids.Append(std::vector<double>{1.0, 2.0, 3.0});
  const std::vector<double> p{1.0, 2.0, 3.0};
  double d2 = -1.0;
  EXPECT_EQ(NearestCentroidIndex(p, centroids, &d2), 0u);
  EXPECT_DOUBLE_EQ(d2, 0.0);
}

TEST(NearestCentroidTest, TieBreaksToFirst) {
  Dataset centroids(1);
  centroids.Append(std::vector<double>{-1.0});
  centroids.Append(std::vector<double>{1.0});
  const std::vector<double> p{0.0};
  EXPECT_EQ(NearestCentroidIndex(p, centroids), 0u);
}

TEST(NearestCentroidTest, NoCancellationAtLargeMagnitude) {
  // An expanded ‖x‖² − 2x·c + ‖c‖² form loses the 0.25 in the rounding
  // of ‖x‖² ≈ 2e16; the subtract-square form is exact here.
  Dataset centroids(2);
  centroids.Append(std::vector<double>{1e8 + 4.0, 1e8});
  centroids.Append(std::vector<double>{1e8, 1e8});
  const std::vector<double> p{1e8 + 0.5, 1e8};
  double d2 = -1.0;
  EXPECT_EQ(NearestCentroidIndex(p, centroids, &d2), 1u);
  EXPECT_EQ(d2, 0.25);
}

TEST(NearestCentroidTest, NanNeverWins) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  Dataset centroids(2);
  centroids.Append(std::vector<double>{kNan, 0.0});
  centroids.Append(std::vector<double>{5.0, 5.0});
  const std::vector<double> p{0.0, 0.0};
  double d2 = -1.0;
  EXPECT_EQ(NearestCentroidIndex(p, centroids, &d2), 1u);
  EXPECT_EQ(d2, 50.0);
  // A NaN point has no nearest centroid: index 0 at distance +inf, as
  // the kernels report it.
  const std::vector<double> nan_point{kNan, 0.0};
  EXPECT_EQ(NearestCentroidIndex(nan_point, centroids, &d2), 0u);
  EXPECT_EQ(d2, std::numeric_limits<double>::infinity());
}

}  // namespace
}  // namespace pmkm
