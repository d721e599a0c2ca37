#include "data/grid.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace pmkm {
namespace {

TEST(GridCellIdTest, OrderingAndToString) {
  const GridCellId a{10, -20};
  const GridCellId b{10, -19};
  EXPECT_LT(a, b);
  EXPECT_EQ(a.ToString(), "cell_10_-20");
}

TEST(GridIndexTest, CellOfBasic) {
  GridIndex index(2);
  EXPECT_EQ(index.CellOf(10.5, 20.5), (GridCellId{10, 20}));
  EXPECT_EQ(index.CellOf(-0.5, -0.5), (GridCellId{-1, -1}));
  EXPECT_EQ(index.CellOf(0.0, 0.0), (GridCellId{0, 0}));
}

TEST(GridIndexTest, LongitudeWraps) {
  GridIndex index(2);
  // 190°E wraps to -170°.
  EXPECT_EQ(index.CellOf(0.0, 190.0), index.CellOf(0.0, -170.0));
  EXPECT_EQ(index.CellOf(0.0, 360.0), index.CellOf(0.0, 0.0));
  EXPECT_EQ(index.CellOf(0.0, -181.0), index.CellOf(0.0, 179.0));
}

TEST(GridIndexTest, PoleIsClampedIntoLastRow) {
  GridIndex index(2);
  EXPECT_EQ(index.CellOf(90.0, 0.0).lat_index, 89);
  EXPECT_EQ(index.CellOf(-90.0, 0.0).lat_index, -90);
}

TEST(GridIndexTest, CoarserCells) {
  GridIndex index(2, 10.0);
  EXPECT_EQ(index.CellOf(25.0, -35.0), (GridCellId{2, -4}));
}

TEST(GridIndexTest, AddBinsPoints) {
  GridIndex index(4);
  ASSERT_TRUE(index.Add(std::vector<double>{10.5, 20.5, 1.0, 2.0}).ok());
  ASSERT_TRUE(index.Add(std::vector<double>{10.7, 20.1, 3.0, 4.0}).ok());
  ASSERT_TRUE(index.Add(std::vector<double>{-5.5, 7.2, 5.0, 6.0}).ok());
  EXPECT_EQ(index.num_cells(), 2u);
  EXPECT_EQ(index.num_points(), 3u);

  auto bucket = index.buckets().find(GridCellId{10, 20});
  ASSERT_NE(bucket, index.buckets().end());
  EXPECT_EQ(bucket->second.size(), 2u);
  // Full vectors (including lat/lon) are stored.
  EXPECT_DOUBLE_EQ(bucket->second(0, 0), 10.5);
  EXPECT_DOUBLE_EQ(bucket->second(1, 3), 4.0);
}

TEST(GridIndexTest, BucketNotFound) {
  GridIndex index(2);
  EXPECT_EQ(index.buckets().count(GridCellId{0, 0}), 0u);
}

TEST(GridIndexTest, AddRejectsWrongDimension) {
  GridIndex index(3);
  EXPECT_TRUE(
      index.Add(std::vector<double>{1.0, 2.0}).IsInvalidArgument());
}

TEST(GridIndexTest, AddRejectsNonFiniteCoordinates) {
  GridIndex index(2);
  const double nan = std::nan("");
  EXPECT_TRUE(
      index.Add(std::vector<double>{nan, 0.0}).IsInvalidArgument());
  EXPECT_TRUE(index.Add(std::vector<double>{0.0, HUGE_VAL})
                  .IsInvalidArgument());
}

TEST(GridIndexTest, AddAllAndCellIdsSorted) {
  GridIndex index(2);
  Dataset d(2);
  d.Append(std::vector<double>{5.5, 5.5});
  d.Append(std::vector<double>{1.5, 1.5});
  d.Append(std::vector<double>{5.9, 5.1});
  ASSERT_TRUE(index.AddAll(d).ok());
  const auto& buckets = index.buckets();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets.begin()->first, (GridCellId{1, 1}));
  EXPECT_LT(buckets.begin()->first, buckets.rbegin()->first);
  EXPECT_EQ(index.num_points(), 3u);
}

}  // namespace
}  // namespace pmkm
