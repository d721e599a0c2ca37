#include "data/slicing.h"

#include <gtest/gtest.h>

#include <set>

#include "data/generator.h"
#include "data/synthetic.h"

namespace pmkm {
namespace {

TEST(SpatialGridTest, Validation) {
  Rng rng(1);
  const Dataset cell = GenerateUniform(10, 3, 0, 1, &rng);
  EXPECT_TRUE(SplitSpatialGrid(cell, 0).status().IsInvalidArgument());
  EXPECT_TRUE(
      SplitSpatialGrid(cell, 2, 0, 0).status().IsInvalidArgument());
  EXPECT_TRUE(
      SplitSpatialGrid(cell, 2, 0, 5).status().IsInvalidArgument());
}

TEST(SpatialGridTest, EmptyCellYieldsNoParts) {
  auto parts = SplitSpatialGrid(Dataset(2), 3);
  ASSERT_TRUE(parts.ok());
  EXPECT_TRUE(parts->empty());
}

TEST(SpatialGridTest, PartsAreSpatiallyDisjointAndComplete) {
  Rng rng(2);
  const Dataset cell = GenerateUniform(2000, 4, -10, 10, &rng);
  auto parts = SplitSpatialGrid(cell, 3);
  ASSERT_TRUE(parts.ok());
  ASSERT_LE(parts->size(), 9u);
  size_t total = 0;
  std::multiset<double> seen;
  for (const Dataset& p : *parts) {
    EXPECT_FALSE(p.empty());
    total += p.size();
    seen.insert(p.values().begin(), p.values().end());
    // Disjoint bounding boxes along the grid: all points of a part fall
    // into one grid bucket — verify x-range width is below one grid step.
    double min_x = p(0, 0), max_x = min_x;
    for (size_t i = 1; i < p.size(); ++i) {
      min_x = std::min(min_x, p(i, 0));
      max_x = std::max(max_x, p(i, 0));
    }
    EXPECT_LE(max_x - min_x, 20.0 / 3.0 + 1e-9);
  }
  EXPECT_EQ(total, cell.size());
  std::multiset<double> original(cell.values().begin(),
                                 cell.values().end());
  EXPECT_EQ(seen, original);
}

TEST(SpatialGridTest, GridSideOneReturnsWholeCell) {
  Rng rng(3);
  const Dataset cell = GenerateUniform(50, 2, 0, 1, &rng);
  auto parts = SplitSpatialGrid(cell, 1);
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 1u);
  EXPECT_EQ((*parts)[0].size(), 50u);
}

TEST(SpatialGridTest, DegenerateAxisHandled) {
  // All points share x: the x-axis has zero span, everything lands in one
  // column, but y still splits.
  Dataset cell(2);
  for (int i = 0; i < 30; ++i) {
    cell.Append(std::vector<double>{5.0, static_cast<double>(i)});
  }
  auto parts = SplitSpatialGrid(cell, 3);
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(parts->size(), 3u);  // three y-rows
}

TEST(SpatialGridTest, CustomDimensions) {
  // Use attributes 2 and 3 as the spatial axes.
  Rng rng(4);
  Dataset cell(4);
  for (int i = 0; i < 100; ++i) {
    cell.Append(std::vector<double>{0.0, 0.0, rng.Uniform(0, 10),
                                    rng.Uniform(0, 10)});
  }
  auto parts = SplitSpatialGrid(cell, 2, 2, 3);
  ASSERT_TRUE(parts.ok());
  EXPECT_GE(parts->size(), 2u);
}

TEST(StripesTest, Validation) {
  Rng rng(5);
  const Dataset cell = GenerateUniform(10, 2, 0, 1, &rng);
  EXPECT_TRUE(SplitStripes(cell, 0).status().IsInvalidArgument());
  EXPECT_TRUE(SplitStripes(cell, 2, 9).status().IsInvalidArgument());
}

TEST(StripesTest, StripesAreSortedAndBalanced) {
  Rng rng(6);
  const Dataset cell = GenerateUniform(101, 2, -5, 5, &rng);
  auto parts = SplitStripes(cell, 4, 1);  // slice along coordinate 1
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 4u);
  size_t total = 0;
  double prev_max = -1e30;
  for (const Dataset& p : *parts) {
    total += p.size();
    EXPECT_GE(p.size(), 25u);
    EXPECT_LE(p.size(), 26u);
    double lo = p(0, 1), hi = p(0, 1);
    for (size_t i = 1; i < p.size(); ++i) {
      lo = std::min(lo, p(i, 1));
      hi = std::max(hi, p(i, 1));
    }
    EXPECT_GE(lo, prev_max - 1e-12);  // stripes ordered along the axis
    prev_max = hi;
  }
  EXPECT_EQ(total, 101u);
}

TEST(StripesTest, FewerPointsThanParts) {
  Rng rng(7);
  const Dataset cell = GenerateUniform(3, 2, 0, 1, &rng);
  auto parts = SplitStripes(cell, 10);
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(parts->size(), 3u);  // empty stripes dropped
}

}  // namespace
}  // namespace pmkm
