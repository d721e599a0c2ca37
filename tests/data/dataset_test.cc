#include "data/dataset.h"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <set>

#include "data/slicing.h"
#include "data/weighted.h"

namespace pmkm {
namespace {

Dataset MakeSequential(size_t n, size_t dim) {
  Dataset d(dim);
  std::vector<double> p(dim);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dim; ++j) {
      p[j] = static_cast<double>(i * dim + j);
    }
    d.Append(p);
  }
  return d;
}

TEST(DatasetTest, AppendAndAccess) {
  Dataset d(3);
  EXPECT_TRUE(d.empty());
  d.Append(std::vector<double>{1.0, 2.0, 3.0});
  d.Append(std::vector<double>{4.0, 5.0, 6.0});
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.dim(), 3u);
  EXPECT_DOUBLE_EQ(d(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(d(1, 2), 6.0);
  auto row = d.Row(1);
  EXPECT_DOUBLE_EQ(row[0], 4.0);
}

TEST(DatasetTest, MutableRowWritesThrough) {
  Dataset d = MakeSequential(2, 2);
  d.MutableRow(0)[1] = 99.0;
  EXPECT_DOUBLE_EQ(d(0, 1), 99.0);
}

TEST(DatasetTest, FromFlatValidatesMultiple) {
  auto ok = Dataset::FromFlat(2, {1, 2, 3, 4});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->size(), 2u);
  EXPECT_DOUBLE_EQ((*ok)(1, 0), 3.0);

  auto bad = Dataset::FromFlat(3, {1, 2, 3, 4});
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  auto zero = Dataset::FromFlat(0, {});
  EXPECT_TRUE(zero.status().IsInvalidArgument());
}

TEST(DatasetTest, AppendAllConcatenates) {
  Dataset a = MakeSequential(2, 2);
  Dataset b = MakeSequential(3, 2);
  a.AppendAll(b);
  EXPECT_EQ(a.size(), 5u);
  EXPECT_DOUBLE_EQ(a(2, 0), 0.0);  // first row of b
}

TEST(DatasetTest, SliceCopiesRange) {
  Dataset d = MakeSequential(5, 2);
  Dataset s = SlicePoints(d, 1, 3);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(s(1, 1), 5.0);
  EXPECT_EQ(SlicePoints(d, 2, 2).size(), 0u);
}

TEST(DatasetTest, MeanIsCoordinatewise) {
  Dataset d(2);
  d.Append(std::vector<double>{0.0, 10.0});
  d.Append(std::vector<double>{2.0, 20.0});
  d.Append(std::vector<double>{4.0, 30.0});
  const auto mean = d.Mean();
  EXPECT_DOUBLE_EQ(mean[0], 2.0);
  EXPECT_DOUBLE_EQ(mean[1], 20.0);
}

TEST(DatasetTest, ShuffleIsAPermutation) {
  Dataset d = MakeSequential(50, 1);
  Dataset original = d;
  Rng rng(3);
  ShufflePoints(&d, &rng);
  EXPECT_EQ(d.size(), original.size());
  std::multiset<double> a(d.values().begin(), d.values().end());
  std::multiset<double> b(original.values().begin(),
                          original.values().end());
  EXPECT_EQ(a, b);
  EXPECT_NE(d.values(), original.values());  // 50! permutations: ~certain
}

TEST(DatasetTest, SplitRandomPreservesAllPoints) {
  Dataset d = MakeSequential(103, 2);
  Rng rng(5);
  const auto parts = SplitRandom(d, 10, &rng);
  ASSERT_EQ(parts.size(), 10u);
  size_t total = 0;
  std::multiset<double> seen;
  for (const auto& p : parts) {
    total += p.size();
    // Near-equal sizes: 103/10 → sizes in {10, 11}.
    EXPECT_GE(p.size(), 10u);
    EXPECT_LE(p.size(), 11u);
    seen.insert(p.values().begin(), p.values().end());
  }
  EXPECT_EQ(total, 103u);
  std::multiset<double> original(d.values().begin(), d.values().end());
  EXPECT_EQ(seen, original);
}

TEST(DatasetTest, SplitContiguousKeepsOrder) {
  Dataset d = MakeSequential(7, 1);
  const auto parts = SplitContiguous(d, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].size(), 3u);  // 7 = 3+2+2
  EXPECT_EQ(parts[1].size(), 2u);
  EXPECT_EQ(parts[2].size(), 2u);
  EXPECT_DOUBLE_EQ(parts[0](0, 0), 0.0);
  EXPECT_DOUBLE_EQ(parts[1](0, 0), 3.0);
  EXPECT_DOUBLE_EQ(parts[2](1, 0), 6.0);
}

TEST(DatasetTest, SplitMorePartsThanPoints) {
  Dataset d = MakeSequential(2, 1);
  Rng rng(1);
  const auto parts = SplitRandom(d, 5, &rng);
  ASSERT_EQ(parts.size(), 5u);
  size_t nonempty = 0;
  for (const auto& p : parts) {
    if (!p.empty()) ++nonempty;
  }
  EXPECT_EQ(nonempty, 2u);
}

TEST(WeightedDatasetTest, FromUnweightedHasUnitWeights) {
  const WeightedDataset w =
      WeightedDataset::FromUnweighted(MakeSequential(4, 2));
  EXPECT_EQ(w.size(), 4u);
  EXPECT_DOUBLE_EQ(w.TotalWeight(), 4.0);
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_DOUBLE_EQ(w.weight(i), 1.0);
  }
}

TEST(WeightedDatasetTest, CreateValidatesSizes) {
  auto bad = WeightedDataset::Create(MakeSequential(3, 2), {1.0, 2.0});
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  auto ok = WeightedDataset::Create(MakeSequential(2, 2), {1.0, 5.0});
  ASSERT_TRUE(ok.ok());
  EXPECT_DOUBLE_EQ(ok->TotalWeight(), 6.0);
}

TEST(WeightedDatasetTest, CreateRejectsNonFiniteAndNegativeWeights) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(), -0.5}) {
    auto st = WeightedDataset::Create(MakeSequential(3, 2), {1.0, bad, 2.0})
                  .status();
    ASSERT_TRUE(st.IsInvalidArgument()) << bad;
    EXPECT_NE(st.message().find("weight 1 "), std::string::npos) << st;
  }
}

TEST(WeightedDatasetTest, CreateAcceptsZeroWeight) {
  // Weight 0 marks a starved centroid.
  auto ok = WeightedDataset::Create(MakeSequential(2, 2), {0.0, 3.0});
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_DOUBLE_EQ(ok->TotalWeight(), 3.0);
}

TEST(WeightedDatasetTest, AppendAllConcatenatesWeights) {
  WeightedDataset a(2);
  a.Append(std::vector<double>{1, 2}, 3.0);
  WeightedDataset b(2);
  b.Append(std::vector<double>{4, 5}, 7.0);
  a.AppendAll(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_DOUBLE_EQ(a.weight(1), 7.0);
  EXPECT_DOUBLE_EQ(a.TotalWeight(), 10.0);
}

}  // namespace
}  // namespace pmkm
