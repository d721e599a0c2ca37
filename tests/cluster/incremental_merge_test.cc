#include "cluster/incremental_merge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "cluster/partial.h"
#include "data/generator.h"

namespace pmkm {
namespace {

MergeKMeansConfig Config(size_t k) {
  MergeKMeansConfig config;
  config.k = k;
  return config;
}

WeightedDataset OneSet(std::vector<std::pair<double, double>> pts) {
  WeightedDataset out(1);
  for (auto [x, w] : pts) out.Append({&x, 1}, w);
  return out;
}

TEST(IncrementalMergeTest, ValidatesInput) {
  IncrementalMergeKMeans merge(2, Config(3));
  EXPECT_TRUE(merge.Push(WeightedDataset(3)).IsInvalidArgument());
  EXPECT_TRUE(merge.Push(WeightedDataset(2)).IsInvalidArgument());
  // Sets are buffered verbatim until k is exceeded, so a bad weight would
  // reach Finish()'s model unless Push rejects it.
  for (double w : {0.0, std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(w);
    WeightedDataset bad_w(2);
    bad_w.Append(std::vector<double>{1.0, 2.0}, w);
    EXPECT_TRUE(merge.Push(bad_w).IsInvalidArgument());
  }
  EXPECT_EQ(merge.partitions_merged(), 0u);
  EXPECT_TRUE(merge.Finish().status().IsFailedPrecondition());
}

TEST(IncrementalMergeTest, BuffersUntilKExceeded) {
  IncrementalMergeKMeans merge(1, Config(4));
  ASSERT_TRUE(merge.Push(OneSet({{0.0, 1.0}, {1.0, 1.0}})).ok());
  EXPECT_EQ(merge.running().size(), 2u);  // verbatim, no clustering yet
  ASSERT_TRUE(merge.Push(OneSet({{2.0, 1.0}, {3.0, 1.0}})).ok());
  EXPECT_EQ(merge.running().size(), 4u);
  auto model = merge.Finish();
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->k(), 4u);
  EXPECT_EQ(merge.partitions_merged(), 2u);
}

TEST(IncrementalMergeTest, RunningSetNeverExceedsK) {
  Rng rng(1);
  IncrementalMergeKMeans merge(6, Config(8));
  for (int p = 0; p < 6; ++p) {
    const Dataset chunk = GenerateMisrLikeCell(200, &rng);
    KMeansConfig pconfig;
    pconfig.k = 8;
    pconfig.restarts = 2;
    const PartialKMeans partial(pconfig);
    auto result = partial.Cluster(chunk, p);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(merge.Push(result->centroids).ok());
    EXPECT_LE(merge.running().size(), 8u + 0u)
        << "after partition " << p;
  }
}

TEST(IncrementalMergeTest, MassIsConservedAcrossFolds) {
  Rng rng(2);
  IncrementalMergeKMeans merge(2, Config(5));
  double total = 0.0;
  for (int p = 0; p < 10; ++p) {
    WeightedDataset set(2);
    for (int i = 0; i < 12; ++i) {
      const double w = 1.0 + rng.UniformInt(20);
      set.Append(std::vector<double>{rng.Uniform(0, 100),
                                     rng.Uniform(0, 100)},
                 w);
      total += w;
    }
    ASSERT_TRUE(merge.Push(set).ok());
  }
  auto model = merge.Finish();
  ASSERT_TRUE(model.ok());
  double mass = 0.0;
  for (double w : model->weights) mass += w;
  EXPECT_NEAR(mass, total, 1e-6);
}

TEST(IncrementalMergeTest, FindsSeparatedBlobsLikeCollective) {
  // Both merge orders must recover two far-apart blobs; the difference the
  // paper predicts is statistical quality, not gross failure.
  Rng rng(3);
  std::vector<WeightedDataset> sets;
  for (int p = 0; p < 5; ++p) {
    WeightedDataset set(1);
    set.Append(std::vector<double>{rng.Normal(0.0, 0.5)}, 40.0);
    set.Append(std::vector<double>{rng.Normal(200.0, 0.5)}, 60.0);
    sets.push_back(set);
  }
  IncrementalMergeKMeans inc(1, Config(2));
  WeightedDataset pooled(1);
  for (const auto& s : sets) {
    ASSERT_TRUE(inc.Push(s).ok());
    pooled.AppendAll(s);
  }
  auto inc_model = inc.Finish();
  auto col_model = MergeKMeans(Config(2)).Merge(pooled);
  ASSERT_TRUE(inc_model.ok() && col_model.ok());
  for (const auto* model : {&*inc_model, &*col_model}) {
    std::vector<double> c{model->centroids(0, 0), model->centroids(1, 0)};
    std::sort(c.begin(), c.end());
    EXPECT_NEAR(c[0], 0.0, 2.0);
    EXPECT_NEAR(c[1], 200.0, 2.0);
  }
}

TEST(IncrementalMergeTest, OrderDependenceExists) {
  // The paper's §3.3 point: incremental merging treats early chunks
  // preferentially, so feeding the same sets in a different order may give
  // a different representation (the collective merge is order-free by
  // construction). We only require the two orders to run and conserve
  // mass; bitwise equality is not expected.
  Rng rng(4);
  std::vector<WeightedDataset> sets;
  for (int p = 0; p < 8; ++p) {
    WeightedDataset set(2);
    for (int i = 0; i < 10; ++i) {
      set.Append(std::vector<double>{rng.Uniform(0, 50),
                                     rng.Uniform(0, 50)},
                 1.0 + rng.UniformInt(30));
    }
    sets.push_back(set);
  }
  IncrementalMergeKMeans forward(2, Config(6));
  IncrementalMergeKMeans backward(2, Config(6));
  for (size_t p = 0; p < sets.size(); ++p) {
    ASSERT_TRUE(forward.Push(sets[p]).ok());
    ASSERT_TRUE(backward.Push(sets[sets.size() - 1 - p]).ok());
  }
  auto fm = forward.Finish();
  auto bm = backward.Finish();
  ASSERT_TRUE(fm.ok() && bm.ok());
  double f_mass = 0.0, b_mass = 0.0;
  for (double w : fm->weights) f_mass += w;
  for (double w : bm->weights) b_mass += w;
  EXPECT_NEAR(f_mass, b_mass, 1e-6);
}

}  // namespace
}  // namespace pmkm
