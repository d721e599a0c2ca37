#include "cluster/lloyd.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <string>

#include "cluster/distance.h"
#include "cluster/kernels.h"
#include "cluster/kernels/kernel.h"
#include "cluster/kmeans.h"
#include "cluster/kmeans_plus_plus.h"
#include "cluster/metrics.h"
#include "cluster/seeding.h"
#include "cluster/serialize.h"
#include "data/generator.h"
#include "data/io.h"
#include "data/synthetic.h"
#include "stream/engine.h"

namespace pmkm {
namespace {

Dataset MakeCentroids(std::vector<std::vector<double>> rows) {
  Dataset d(rows[0].size());
  for (const auto& r : rows) d.Append(r);
  return d;
}

TEST(LloydTest, ValidatesInput) {
  const LloydConfig config;
  WeightedDataset empty(2);
  EXPECT_TRUE(
      RunWeightedLloyd(empty, MakeCentroids({{0.0, 0.0}}), config)
          .status()
          .IsInvalidArgument());

  WeightedDataset data(2);
  data.Append(std::vector<double>{1.0, 1.0}, 1.0);
  EXPECT_TRUE(RunWeightedLloyd(data, Dataset(2), config)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      RunWeightedLloyd(data, MakeCentroids({{1.0}}), config)
          .status()
          .IsInvalidArgument());

  LloydConfig bad = config;
  bad.epsilon = -1.0;
  EXPECT_TRUE(
      RunWeightedLloyd(data, MakeCentroids({{0.0, 0.0}}), bad)
          .status()
          .IsInvalidArgument());
}

TEST(LloydTest, SingleClusterConvergesToWeightedMean) {
  WeightedDataset data(1);
  data.Append(std::vector<double>{0.0}, 1.0);
  data.Append(std::vector<double>{10.0}, 3.0);
  auto model = RunWeightedLloyd(data, MakeCentroids({{100.0}}),
                                LloydConfig{});
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->centroids(0, 0), 7.5, 1e-12);  // (0·1+10·3)/4
  EXPECT_DOUBLE_EQ(model->weights[0], 4.0);
  EXPECT_TRUE(model->converged);
}

TEST(LloydTest, TwoObviousClusters) {
  WeightedDataset data(1);
  for (double x : {0.0, 1.0, 2.0}) data.Append({&x, 1}, 1.0);
  for (double x : {100.0, 101.0, 102.0}) data.Append({&x, 1}, 1.0);
  auto model = RunWeightedLloyd(data, MakeCentroids({{0.0}, {90.0}}),
                                LloydConfig{});
  ASSERT_TRUE(model.ok());
  std::vector<double> c{model->centroids(0, 0), model->centroids(1, 0)};
  std::sort(c.begin(), c.end());
  EXPECT_NEAR(c[0], 1.0, 1e-9);
  EXPECT_NEAR(c[1], 101.0, 1e-9);
  EXPECT_NEAR(model->sse, 4.0, 1e-9);  // 2·(1+0+1)
}

TEST(LloydTest, SseMatchesIndependentMetric) {
  Rng rng(4);
  const Dataset points = GenerateUniform(500, 3, -5.0, 5.0, &rng);
  const WeightedDataset data = WeightedDataset::FromUnweighted(points);
  Dataset seeds(3);
  for (size_t i = 0; i < 8; ++i) seeds.Append(points.Row(i * 11));
  auto model =
      RunWeightedLloyd(data, std::move(seeds), LloydConfig{});
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->sse, Sse(model->centroids, points),
              1e-6 * (1.0 + model->sse));
  EXPECT_NEAR(model->mse_per_point, model->sse / 500.0, 1e-12);
}

TEST(LloydTest, SseNeverIncreasesAcrossRuns) {
  // Monotonicity property of Lloyd: a converged model's error cannot be
  // worse than the error of the initial seeds.
  Rng rng(5);
  const Dataset points = GenerateMisrLikeCell(2000, &rng);
  const WeightedDataset data = WeightedDataset::FromUnweighted(points);
  Dataset seeds(points.dim());
  for (size_t i = 0; i < 10; ++i) seeds.Append(points.Row(i * 37));
  const double initial_sse = Sse(seeds, points);
  auto model = RunWeightedLloyd(data, seeds, LloydConfig{});
  ASSERT_TRUE(model.ok());
  EXPECT_LE(model->sse, initial_sse * (1.0 + 1e-12));
}

TEST(LloydTest, WeightsSumToTotalWeight) {
  Rng rng(6);
  WeightedDataset data(2);
  for (int i = 0; i < 100; ++i) {
    data.Append(std::vector<double>{rng.Normal(), rng.Normal()},
                1.0 + rng.UniformDouble());
  }
  Dataset seeds(2);
  for (size_t i = 0; i < 5; ++i) seeds.Append(data.Row(i));
  auto model =
      RunWeightedLloyd(data, std::move(seeds), LloydConfig{});
  ASSERT_TRUE(model.ok());
  double sum = 0.0;
  for (double w : model->weights) sum += w;
  EXPECT_NEAR(sum, data.TotalWeight(), 1e-9);
}

TEST(LloydTest, EmptyClusterIsRepaired) {
  // Seeding two centroids at the same far-away location guarantees one
  // starves on the first assignment; the repair must keep k=2 distinct,
  // non-empty clusters for this clearly bimodal data.
  Rng rng(7);
  WeightedDataset data(1);
  for (int i = 0; i < 20; ++i) {
    data.Append(std::vector<double>{rng.Normal(0.0, 0.1)}, 1.0);
    data.Append(std::vector<double>{rng.Normal(50.0, 0.1)}, 1.0);
  }
  auto model = RunWeightedLloyd(
      data, MakeCentroids({{-1000.0}, {-1000.0}}), LloydConfig{});
  ASSERT_TRUE(model.ok());
  EXPECT_GT(model->weights[0], 0.0);
  EXPECT_GT(model->weights[1], 0.0);
  std::vector<double> c{model->centroids(0, 0), model->centroids(1, 0)};
  std::sort(c.begin(), c.end());
  EXPECT_NEAR(c[0], 0.0, 1.0);
  EXPECT_NEAR(c[1], 50.0, 1.0);
}

TEST(LloydTest, DuplicatePointsFewerThanK) {
  // 3 identical points, k=2: one cluster must stay empty (weight 0) and
  // the run must still terminate cleanly.
  WeightedDataset data(1);
  for (int i = 0; i < 3; ++i) {
    data.Append(std::vector<double>{5.0}, 1.0);
  }
  auto model = RunWeightedLloyd(data, MakeCentroids({{5.0}, {9.0}}),
                                LloydConfig{});
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->sse, 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(model->weights[0] + model->weights[1], 3.0);
}

TEST(LloydTest, MaxIterationsRespected) {
  Rng rng(10);
  const Dataset points = GenerateMisrLikeCell(3000, &rng);
  const WeightedDataset data = WeightedDataset::FromUnweighted(points);
  Dataset seeds(points.dim());
  for (size_t i = 0; i < 20; ++i) seeds.Append(points.Row(i * 71));
  LloydConfig config;
  config.max_iterations = 2;
  auto model = RunWeightedLloyd(data, std::move(seeds), config);
  ASSERT_TRUE(model.ok());
  EXPECT_LE(model->iterations, 2u);
}

TEST(LloydTest, ConvergedRunIsFixedPoint) {
  // Running Lloyd again from the converged centroids must not improve
  // the error beyond epsilon.
  Rng rng(11);
  const Dataset points = GenerateMisrLikeCell(1500, &rng);
  const WeightedDataset data = WeightedDataset::FromUnweighted(points);
  Dataset seeds(points.dim());
  for (size_t i = 0; i < 12; ++i) seeds.Append(points.Row(i * 101));
  auto first =
      RunWeightedLloyd(data, std::move(seeds), LloydConfig{});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->converged);
  auto second =
      RunWeightedLloyd(data, first->centroids, LloydConfig{});
  ASSERT_TRUE(second.ok());
  EXPECT_NEAR(second->sse, first->sse, 1e-6 * (1.0 + first->sse));
}

// ---- Bound-pruned assignment (LloydConfig::accelerate) --------------------
//
// Pruning is exact: with it off and on, every field of the model must be
// bitwise equal. HamerlyTest groups the cases aimed at Hamerly's bounds.

// Bit patterns, so that -0.0 vs 0.0 or two different NaNs also differ.
std::vector<uint64_t> Bits(const std::vector<double>& v) {
  std::vector<uint64_t> out(v.size());
  if (!v.empty()) {
    std::memcpy(out.data(), v.data(), v.size() * sizeof(double));
  }
  return out;
}

void ExpectBitwiseEqual(const ClusteringModel& a, const ClusteringModel& b) {
  EXPECT_EQ(a.centroids.dim(), b.centroids.dim());
  EXPECT_EQ(Bits(a.centroids.values()), Bits(b.centroids.values()));
  EXPECT_EQ(Bits(a.weights), Bits(b.weights));
  EXPECT_EQ(Bits({a.sse, a.mse_per_point}), Bits({b.sse, b.mse_per_point}));
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
}

// The scalar kernel, counting the points it is asked to scan and the
// point-to-centroid distances those scans compute: shows how much work
// the bounds and the ball saved without instrumenting the loop.
class CountingKernel final : public DistanceKernel {
 public:
  const char* name() const override { return "counting"; }
  KernelKind kind() const override { return KernelKind::kScalar; }

  size_t PruneBlock(const double* points, size_t n, size_t dim,
                    const double* centroids, const uint32_t* assign,
                    const double* s, double shift, double* lower,
                    double* dist2, uint32_t* rows,
                    uint8_t* levels) const override {
    return base_.PruneBlock(points, n, dim, centroids, assign, s, shift,
                            lower, dist2, rows, levels);
  }

  void AssignMasked(const double* points, size_t n, size_t dim,
                    const double* centroids, size_t k, const uint32_t* rows,
                    const uint64_t* masks, uint32_t* assign, double* dist2,
                    double* lower) const override {
    unbounded_scans += lower == nullptr;
    scanned += n;
    for (size_t p = 0; p < n; ++p) {
      distances += masks != nullptr ? std::popcount(masks[p]) : k;
    }
    base_.AssignMasked(points, n, dim, centroids, k, rows, masks, assign,
                       dist2, lower);
  }

  double AccumulateBlock(const double* points, const double* weights,
                         const double* dist2, size_t n, size_t dim,
                         const uint32_t* assign, double* sums,
                         double* cluster_weight) const override {
    return base_.AccumulateBlock(points, weights, dist2, n, dim, assign,
                                 sums, cluster_weight);
  }

  void CentroidDriftAndSeparation(const double* old_centroids,
                                  const double* new_centroids, size_t k,
                                  size_t dim, double* drift, double* s,
                                  uint64_t* rings) const override {
    base_.CentroidDriftAndSeparation(old_centroids, new_centroids, k, dim,
                                     drift, s, rings);
  }

  // AssignMasked calls without `lower`: AssignBlock's form, which a
  // pruned fit, whose every scan refreshes the bounds, never makes.
  mutable size_t unbounded_scans = 0;
  mutable size_t scanned = 0;
  mutable size_t distances = 0;

 private:
  const DistanceKernel& base_ = GetKernel(KernelKind::kScalar);
};

struct ScanCounts {
  size_t full = 0;    // points scanned with pruning off
  size_t pruned = 0;  // ... and on
  size_t pruned_distances = 0;  // the distances those scans computed
  LloydCounters lloyd;          // the pruned fit's own accounting
};

// Fits from `seeds` with pruning off and on and expects bitwise-equal
// models. The pruned fit's LloydCounters must account for exactly the
// survivor scans the kernel saw: everything else is a full first pass.
ScanCounts ExpectPruningExact(const WeightedDataset& data,
                              const Dataset& seeds, LloydConfig config) {
  CountingKernel full, pruned;
  config.kernel = &full;
  config.accelerate = false;
  auto a = RunWeightedLloyd(data, seeds, config);
  LloydCounters counters;
  config.kernel = &pruned;
  config.accelerate = true;
  config.counters = &counters;
  auto b = RunWeightedLloyd(data, seeds, config);
  EXPECT_TRUE(a.ok()) << a.status();
  EXPECT_TRUE(b.ok()) << b.status();
  if (a.ok() && b.ok()) ExpectBitwiseEqual(*a, *b);
  const size_t full_passes = pruned.scanned - counters.survivors;
  EXPECT_EQ(full_passes % data.size(), 0u);
  EXPECT_EQ(pruned.distances - counters.survivor_distances,
            full_passes * seeds.size());
  EXPECT_LE(counters.survivors, counters.pruned_points);
  // Every pass scans through AssignMasked: the unpruned fit's scans are
  // whole passes, and the pruned fit makes no AssignBlock call.
  EXPECT_GT(full.scanned, 0u);
  EXPECT_EQ(full.scanned % data.size(), 0u);
  EXPECT_EQ(pruned.unbounded_scans, 0u);
  return {full.scanned, pruned.scanned, pruned.distances, counters};
}

// Every Lloyd pass scans through AssignMasked, first passes included:
// ExpectPruningExact finds no AssignBlock call, pruned or not, below the
// ball (k = 4) and inside it (k = 40).
TEST(HamerlyTest, LloydLoopMakesNoAssignBlockCall) {
  Rng data_rng(12);
  const WeightedDataset data =
      WeightedDataset::FromUnweighted(GenerateMisrLikeCell(1500, &data_rng));
  for (size_t k : {4u, 40u}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    Rng seed_rng(13);
    auto seeds = RandomSeeds(data, k, &seed_rng);
    ASSERT_TRUE(seeds.ok());
    ExpectPruningExact(data, *seeds, LloydConfig{});
  }
}

TEST(HamerlyTest, SingleClusterIsWeightedMean) {
  WeightedDataset data(1);
  data.Append(std::vector<double>{0.0}, 1.0);
  data.Append(std::vector<double>{10.0}, 3.0);
  LloydConfig config;
  config.accelerate = true;
  auto model = RunWeightedLloyd(data, MakeCentroids({{-50.0}}), config);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->centroids(0, 0), 7.5, 1e-12);
  EXPECT_TRUE(model->converged);
}

class HamerlyEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(HamerlyEquivalence, MatchesPlainLloydFixedPoint) {
  const int n = GetParam();
  Rng data_rng(static_cast<uint64_t>(n));
  const WeightedDataset data = WeightedDataset::FromUnweighted(
      GenerateMisrLikeCell(static_cast<size_t>(n), &data_rng));
  // k = 15 runs below kBallMinK, so every survivor scans all k; k = 40
  // sends the survivors through the ball.
  for (size_t k : {15u, 40u}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    Rng seed_rng(77);
    auto seeds = RandomSeeds(data, k, &seed_rng);
    ASSERT_TRUE(seeds.ok());
    LloydConfig config;
    config.max_iterations = 500;
    const ScanCounts scans = ExpectPruningExact(data, *seeds, config);
    EXPECT_LT(scans.pruned, scans.full);  // the bounds did something
    // The point counts a per-point scalar bound test recorded: equal
    // counts show that no pruning decision moved. The k = 15 distances
    // are the full scans', 15 per scanned point; the k = 40 ones, as the
    // ball first recorded them, pin its width: a looser ball scans more.
    struct Recorded {
      size_t full, pruned, pruned_distances;
    };
    const std::map<std::pair<int, size_t>, Recorded> recorded = {
        {{300, 15}, {2700, 846, 12690}},
        {{1500, 15}, {25500, 4494, 67410}},
        {{6000, 15}, {150000, 24390, 365850}},
        {{300, 40}, {2700, 1317, 19806}},
        {{1500, 40}, {31500, 9781, 120243}},
        {{6000, 40}, {228000, 55482, 758446}}};
    const Recorded& want = recorded.at({n, k});
    EXPECT_EQ(scans.full, want.full);
    EXPECT_EQ(scans.pruned, want.pruned);
    EXPECT_EQ(scans.pruned_distances, want.pruned_distances);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, HamerlyEquivalence,
                         ::testing::Values(300, 1500, 6000));

TEST(HamerlyTest, WeightedEquivalenceWithLloyd) {
  Rng rng(3);
  WeightedDataset data(3);
  for (int i = 0; i < 400; ++i) {
    data.Append(std::vector<double>{rng.Uniform(0, 20), rng.Uniform(0, 20),
                                    rng.Uniform(0, 20)},
                1.0 + rng.UniformInt(9));
  }
  Rng seed_rng(5);
  auto seeds = RandomSeeds(data, 8, &seed_rng);
  ASSERT_TRUE(seeds.ok());
  ExpectPruningExact(data, *seeds, LloydConfig{});
}

TEST(HamerlyTest, SkipsDominateOnWellSeparatedData) {
  // Once clusters are tight and far apart, the bounds prove nearly every
  // point stable: fewer than half the full scan's points are scanned.
  Rng rng(4);
  const WeightedDataset data = WeightedDataset::FromUnweighted(
      GenerateSeparatedClusters(5000, 4, 8, 500.0, 1.0, &rng));
  Rng seed_rng(6);
  auto seeds = KMeansPlusPlusSeeds(data, 8, &seed_rng);
  ASSERT_TRUE(seeds.ok());
  const ScanCounts scans = ExpectPruningExact(data, *seeds, LloydConfig{});
  EXPECT_LT(2 * scans.pruned, scans.full);
  // As recorded by a per-point scalar bound test: only the first pass
  // scans.
  EXPECT_EQ(scans.full, 20000u);
  EXPECT_EQ(scans.pruned, 5000u);
}

TEST(HamerlyTest, EmptyClusterRepaired) {
  Rng rng(5);
  WeightedDataset data(1);
  for (int i = 0; i < 30; ++i) {
    data.Append(std::vector<double>{rng.Normal(0.0, 0.1)}, 1.0);
    data.Append(std::vector<double>{rng.Normal(80.0, 0.1)}, 1.0);
  }
  LloydConfig config;
  config.accelerate = true;
  auto model = RunWeightedLloyd(
      data, MakeCentroids({{-500.0}, {-500.0}}), config);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(model->weights[0], 0.0);
  EXPECT_GT(model->weights[1], 0.0);
  std::vector<double> c{model->centroids(0, 0), model->centroids(1, 0)};
  std::sort(c.begin(), c.end());
  EXPECT_NEAR(c[0], 0.0, 1.0);
  EXPECT_NEAR(c[1], 80.0, 1.0);
}

TEST(HamerlyTest, AcceleratedKMeansEndToEnd) {
  // The multi-restart fit returns the paper's full-scan model bit for bit.
  Rng rng(7);
  const Dataset cell = GenerateMisrLikeCell(3000, &rng);
  KMeansConfig plain;
  plain.k = 20;
  plain.restarts = 3;
  plain.seed = 9;
  plain.lloyd.accelerate = false;
  KMeansConfig fast = plain;
  fast.lloyd.accelerate = true;
  auto a = KMeans(plain).Fit(cell);
  auto b = KMeans(fast).Fit(cell);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectBitwiseEqual(*a, *b);
}

// Inputs chosen to stress the pruning test's exactness argument.
struct DiffCase {
  WeightedDataset data;
  Dataset seeds;
  LloydConfig config;
};

Dataset SeedsFor(const WeightedDataset& data, size_t k) {
  Rng rng(k);
  auto seeds = RandomSeeds(data, k, &rng);
  PMKM_CHECK(seeds.ok()) << seeds.status();
  return std::move(seeds).value();
}

DiffCase MakeDiffCase(const std::string& name) {
  DiffCase c;
  MisrCellSpec spec;
  if (name == "duplicate_centroids") {
    // Duplicates tie on every point and starve, forcing repairs.
    Rng rng(31);
    c.data = WeightedDataset::FromUnweighted(GenerateMisrLikeCell(1500, &rng));
    c.seeds = Dataset(c.data.dim());
    for (size_t i : {0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3}) {
      c.seeds.Append(c.data.Row(i * 97));
    }
  } else if (name == "integer_grid_ties") {
    // Integer points and centroids: many points lie exactly halfway
    // between two centroids.
    c.data = WeightedDataset(2);
    for (int x = 0; x <= 14; ++x) {
      for (int y = 0; y <= 14; ++y) {
        c.data.Append(std::vector<double>{1.0 * x, 1.0 * y}, 1.0);
      }
    }
    c.seeds = MakeCentroids(
        {{0, 0}, {4, 0}, {0, 4}, {4, 4}, {10, 10}, {2, 12}, {2, 12}});
  } else if (name == "fixed_point_tie" || name == "fixed_point_tie_swapped") {
    // {-2, 2 | 3, 5} around centroids 0 and 4 is a Lloyd fixed point in
    // which x = 2 ties exactly; every pruned pass must re-scan it.
    c.data = WeightedDataset(1);
    for (double x : {-2.0, 2.0, 3.0, 5.0}) c.data.Append({&x, 1}, 1.0);
    c.seeds = name == "fixed_point_tie" ? MakeCentroids({{0.0}, {4.0}})
                                        : MakeCentroids({{4.0}, {0.0}});
    c.config.epsilon = 0.0;
  } else if (name == "fewer_distinct_than_k") {
    // 5 locations, k = 8: repairs run until every point sits on a
    // centroid, then the rest stay starved.
    c.data = WeightedDataset(3);
    for (int i = 0; i < 400; ++i) {
      const double l = i % 5;
      c.data.Append(std::vector<double>{3 * l, -l, l * l}, 1.0 + i % 3);
    }
    c.seeds = Dataset(3);
    for (size_t i = 0; i < 8; ++i) {
      std::vector<double> seed(c.data.Row(i).begin(), c.data.Row(i).end());
      for (double& v : seed) v += 0.5;
      c.seeds.Append(seed);
    }
  } else if (name == "k1") {
    Rng rng(32);
    c.data = WeightedDataset::FromUnweighted(GenerateMisrLikeCell(500, &rng));
    c.seeds = SeedsFor(c.data, 1);
  } else if (name == "k13_d5") {
    Rng rng(33);
    spec.dim = 5;
    c.data =
        WeightedDataset::FromUnweighted(GenerateMisrLikeCell(2000, &rng, spec));
    c.seeds = SeedsFor(c.data, 13);
  } else if (name == "offset_1e6") {
    // Distances are tiny next to the coordinates, so every difference
    // cancels most of its bits.
    Rng rng(34);
    Dataset points = GenerateMisrLikeCell(2000, &rng);
    for (size_t i = 0; i < points.size(); ++i) {
      for (size_t d = 0; d < points.dim(); ++d) {
        points.mutable_data()[i * points.dim() + d] += 1e6;
      }
    }
    c.data = WeightedDataset::FromUnweighted(std::move(points));
    c.seeds = SeedsFor(c.data, 10);
  } else if (name == "weighted_merge") {
    // A merge step's input: 28 partitions' worth of weighted centroids,
    // seeded with the heaviest 40.
    Rng rng(35);
    const Dataset pooled = GenerateMisrLikeCell(28 * 40, &rng);
    c.data = WeightedDataset(pooled.dim());
    for (size_t i = 0; i < pooled.size(); ++i) {
      c.data.Append(pooled.Row(i), 1.0 + rng.UniformInt(500));
    }
    c.seeds = *HeaviestSeeds(c.data, 40);
  } else if (name == "epsilon0") {
    // Runs to the iteration cap, so drift accumulates in the bounds.
    Rng rng(36);
    c.data = WeightedDataset::FromUnweighted(GenerateMisrLikeCell(3000, &rng));
    c.seeds = SeedsFor(c.data, 20);
    c.config.epsilon = 0.0;
    c.config.max_iterations = 300;
  } else if (name == "chunk_2730") {
    // The production chunk size: 10 full tiles and a last tile of 170
    // points, 2 past a multiple of 4.
    Rng rng(37);
    c.data = WeightedDataset::FromUnweighted(GenerateMisrLikeCell(2730, &rng));
    c.seeds = SeedsFor(c.data, 40);
  } else if (name == "n1027_d1") {
    // 3 points past a multiple of 4, one coordinate each.
    Rng rng(38);
    spec.dim = 1;
    c.data =
        WeightedDataset::FromUnweighted(GenerateMisrLikeCell(1027, &rng, spec));
    c.seeds = SeedsFor(c.data, 7);
  } else if (name == "ball_duplicate_seeds") {
    // k = 24 above kBallMinK with 8 seeds repeated: a duplicated owner
    // has s = 0 and takes the full scan, the others the ball.
    Rng rng(39);
    c.data = WeightedDataset::FromUnweighted(GenerateMisrLikeCell(3000, &rng));
    c.seeds = Dataset(c.data.dim());
    for (size_t i = 0; i < 24; ++i) c.seeds.Append(c.data.Row((i % 16) * 181));
  } else if (name == "ball_duplicate_points") {
    // Every point three times over, k = 30: exact ties between points.
    Rng rng(40);
    const Dataset points = GenerateMisrLikeCell(900, &rng);
    c.data = WeightedDataset(points.dim());
    for (int copy = 0; copy < 3; ++copy) {
      for (size_t i = 0; i < points.size(); ++i) {
        c.data.Append(points.Row(i), 1.0);
      }
    }
    c.seeds = SeedsFor(c.data, 30);
  } else if (name == "k64" || name == "k65") {
    // The widest ring mask, and one centroid past it (no ball).
    Rng rng(41);
    c.data = WeightedDataset::FromUnweighted(GenerateMisrLikeCell(4000, &rng));
    c.seeds = SeedsFor(c.data, name == "k64" ? 64 : 65);
  } else {
    PMKM_CHECK(false) << "unknown case " << name;
  }
  return c;
}

// The ball's own cases through the counting kernel: the models match the
// full scan, and the survivors' distances show whether the ball served
// them (fewer than k each) or the full scan did (exactly k each).
TEST(BallTest, ExactAndEngagedOnlyWhereItMay) {
  for (const char* name : {"ball_duplicate_seeds", "ball_duplicate_points",
                           "k64", "k65", "weighted_merge", "chunk_2730"}) {
    SCOPED_TRACE(name);
    const DiffCase c = MakeDiffCase(name);
    const LloydCounters counters =
        ExpectPruningExact(c.data, c.seeds, c.config).lloyd;
    const size_t k = c.seeds.size();
    ASSERT_GT(counters.survivors, 0u);
    if (k > kBallMaxK) {
      EXPECT_EQ(counters.survivor_distances, counters.survivors * k);
    } else {
      EXPECT_LT(2 * counters.survivor_distances, counters.survivors * k);
    }
  }
}

class PruningDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(PruningDifferential, BitwiseEqualToFullScanOnEveryKernel) {
  const DiffCase c = MakeDiffCase(GetParam());
  LloydConfig config = c.config;
  config.accelerate = false;
  config.kernel = &GetKernel(KernelKind::kScalar);
  auto ref = RunWeightedLloyd(c.data, c.seeds, config);
  ASSERT_TRUE(ref.ok()) << ref.status();
  for (const DistanceKernel* kernel : AvailableKernels()) {
    for (bool accelerate : {false, true}) {
      SCOPED_TRACE(std::string(kernel->name()) +
                   (accelerate ? " pruned" : " full scan"));
      config.kernel = kernel;
      config.accelerate = accelerate;
      auto model = RunWeightedLloyd(c.data, c.seeds, config);
      ASSERT_TRUE(model.ok()) << model.status();
      ExpectBitwiseEqual(*ref, *model);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, PruningDifferential,
    ::testing::Values("duplicate_centroids", "integer_grid_ties",
                      "fixed_point_tie", "fixed_point_tie_swapped",
                      "fewer_distinct_than_k", "k1", "k13_d5", "offset_1e6",
                      "weighted_merge", "epsilon0", "chunk_2730",
                      "n1027_d1", "ball_duplicate_seeds",
                      "ball_duplicate_points", "k64", "k65"),
    [](const auto& info) { return std::string(info.param); });

// Fits in which centroids starve, each pinned to the XXH64 of the
// EncodeModel bytes it produced at commit 48fe7cf. There every pass summed
// the SSE and tracked each cluster's farthest point in a loop of its own;
// now AccumulateBlock returns the SSE and the farthest-point search runs
// only in a pass that starved a centroid, so the repairs must still pick
// the same donors and subtract the same SSE.
struct StarvationCase {
  WeightedDataset data{1};
  Dataset seeds{1};
  uint64_t digest = 0;         // at 48fe7cf, on every kernel, pruned or not
  size_t calm_passes = 0;      // leading passes that starve no centroid
  uint64_t first_repairs = 0;  // repairs in the pass after them
};

StarvationCase MakeStarvationCase(const std::string& name) {
  StarvationCase c;
  if (name == "mid_run") {
    // 600 points and 40 random seeds: the first two passes feed every
    // centroid, and the third starves one.
    Rng rng(38);
    c.data = WeightedDataset::FromUnweighted(GenerateMisrLikeCell(600, &rng));
    Rng seed_rng(1038);
    c.seeds = *RandomSeeds(c.data, 40, &seed_rng);
    c.digest = 0x2a28dd8bf6823893;
    c.calm_passes = 2;
    c.first_repairs = 1;
  } else if (name == "far_and_duplicate_seeds") {
    // Seeds 1 and 2 repeat seed 0 and the last lies 1e3 away from every
    // point: the first pass starves three centroids, and each repair
    // takes a different donor.
    Rng rng(44);
    c.data = WeightedDataset::FromUnweighted(GenerateMisrLikeCell(2000, &rng));
    const Dataset random = SeedsFor(c.data, 16);
    c.seeds = Dataset(c.data.dim());
    for (size_t j = 0; j < random.size(); ++j) {
      std::vector<double> seed(random.Row(j < 3 ? 0 : j).begin(),
                               random.Row(j < 3 ? 0 : j).end());
      if (j + 1 == random.size()) {
        for (double& v : seed) v += 1e3;
      }
      c.seeds.Append(seed);
    }
    c.digest = 0x810625ddf470b96b;
    c.first_repairs = 3;
  } else {
    PMKM_CHECK(false) << "unknown case " << name;
  }
  return c;
}

uint64_t ModelDigest(const ClusteringModel& model) {
  const std::vector<uint8_t> bytes = EncodeModel(model);
  internal::Xxh64 hash;
  hash.Update(bytes.data(), bytes.size());
  return hash.Digest();
}

class StarvationDifferential
    : public ::testing::TestWithParam<const char*> {};

TEST_P(StarvationDifferential, ModelBytesMatchPinnedDigestOnEveryKernel) {
  const StarvationCase c = MakeStarvationCase(GetParam());
  for (const DistanceKernel* kernel : AvailableKernels()) {
    for (bool accelerate : {false, true}) {
      SCOPED_TRACE(std::string(kernel->name()) +
                   (accelerate ? " pruned" : " full scan"));
      LloydConfig config;
      config.kernel = kernel;
      config.accelerate = accelerate;
      LloydCounters counters;
      config.counters = &counters;
      auto model = RunWeightedLloyd(c.data, c.seeds, config);
      ASSERT_TRUE(model.ok()) << model.status();
      EXPECT_EQ(ModelDigest(*model), c.digest)
          << std::hex << "digest 0x" << ModelDigest(*model);
      // The repairs happen where the case says: none in the calm passes
      // and first_repairs in the next.
      LloydCounters calm, next;
      config.max_iterations = c.calm_passes;
      config.counters = &calm;
      if (c.calm_passes > 0) {
        ASSERT_TRUE(RunWeightedLloyd(c.data, c.seeds, config).ok());
      }
      config.max_iterations = c.calm_passes + 1;
      config.counters = &next;
      ASSERT_TRUE(RunWeightedLloyd(c.data, c.seeds, config).ok());
      EXPECT_EQ(calm.empty_repairs, 0u);
      EXPECT_EQ(next.empty_repairs, c.first_repairs);
      EXPECT_GE(counters.empty_repairs, next.empty_repairs);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, StarvationDifferential,
                         ::testing::Values("mid_run",
                                           "far_and_duplicate_seeds"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// ---- Repeat skip ------------------------------------------------------
//
// A pruned fit stops before a pass that would repeat the previous one bit
// for bit, and skips the final pass with it (RunWeightedLloyd). Its model
// must equal the unpruned loop's, which runs both passes.

// The passes the pruned fit behind `scans` ran over n points: its full
// scans (the counting kernel's points less the survivors) and its pruned
// passes.
size_t PassesRun(const ScanCounts& scans, size_t n) {
  return (scans.pruned - scans.lloyd.survivors) / n +
         scans.lloyd.pruned_points / n;
}

TEST(RepeatSkipTest, FitConvergedByRepetitionSkipsTwoPasses) {
  // A serve-shaped chunk at k = 8, whose last pass repeats the one
  // before it.
  Rng rng(46);
  const WeightedDataset data =
      WeightedDataset::FromUnweighted(GenerateMisrLikeCell(2730, &rng));
  const size_t n = data.size();
  const Dataset seeds = SeedsFor(data, 8);
  LloydConfig config;
  const ScanCounts scans = ExpectPruningExact(data, seeds, config);
  auto model = RunWeightedLloyd(data, seeds, config);
  ASSERT_TRUE(model.ok()) << model.status();
  ASSERT_TRUE(model->converged);
  const size_t iterations = model->iterations;
  EXPECT_EQ(iterations, 18u);
  // The unpruned loop runs every iteration and the final pass, 19
  // passes; the pruned one stops two passes short, so its pruned_points
  // drops by exactly 2n: 16 pruned passes after its one full scan, where
  // running every pass would make 18.
  EXPECT_EQ(scans.full, (iterations + 1) * n);
  EXPECT_EQ(PassesRun(scans, n), iterations - 1);
  EXPECT_EQ(scans.lloyd.pruned_points, 16u * n);
  // Capped at the last iteration run (t + 1 = iterations − 1), the loop
  // stops before it can skip, unconverged, and runs its final pass;
  // capped at t + 2, it skips as before.
  for (size_t cap : {iterations - 1, iterations}) {
    SCOPED_TRACE("max_iterations=" + std::to_string(cap));
    config.max_iterations = cap;
    const ScanCounts capped = ExpectPruningExact(data, seeds, config);
    auto capped_model = RunWeightedLloyd(data, seeds, config);
    ASSERT_TRUE(capped_model.ok()) << capped_model.status();
    EXPECT_EQ(capped_model->iterations, cap);
    EXPECT_EQ(capped_model->converged, cap == iterations);
    EXPECT_EQ(PassesRun(capped, n), cap == iterations ? cap - 1 : cap + 1);
  }
}

TEST(RepeatSkipTest, RepairInSecondToLastIterationBlocksTheSkip) {
  // y = 49·(1/49) is one ulp below 1. Centroids 0 and 1 both sit at y,
  // so the point x = 1 (weight 49) goes to centroid 0 on a tie and
  // centroid 1 starves. Its repair moves x to centroid 1, whose new
  // position 49·(1/49) is y again, and leaves centroid 0 without weight,
  // so it stays put: the centroids come out bit for bit as they went
  // in, but assign no longer says what a pass returns. The next
  // iteration must run: it finds the same starved centroid, repairs it
  // again and converges, and its final pass puts x back on centroid 0.
  const double y = 49.0 * (1.0 / 49.0);
  ASSERT_NE(y, 1.0);
  WeightedDataset data(1);
  data.Append(std::vector<double>{1.0}, 49.0);
  data.Append(std::vector<double>{5.0}, 1.0);
  const Dataset seeds = MakeCentroids({{y}, {y}, {5.0}});
  const ScanCounts scans = ExpectPruningExact(data, seeds, LloydConfig{});
  EXPECT_EQ(scans.lloyd.empty_repairs, 2u);
  EXPECT_EQ(PassesRun(scans, data.size()), 3u);
  auto model = RunWeightedLloyd(data, seeds, LloydConfig{});
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_TRUE(model->converged);
  EXPECT_EQ(model->iterations, 2u);
  EXPECT_EQ(model->centroids.values(), seeds.values());
  EXPECT_EQ(model->weights, (std::vector<double>{49.0, 0.0, 1.0}));
}

TEST(RepeatSkipTest, InfiniteSseNeverSkips) {
  // Corners of {±1e200}^6: finite points whose squared distances
  // overflow, so the SSE is +inf from the first pass on. The centroids
  // settle, but sse − sse is NaN: the stop test never holds, so neither
  // may the skip. Both loops run to the cap, and the multi-restart fit
  // fails as the unpruned one does.
  WeightedDataset data(6);
  for (uint32_t corner = 0; corner < 60; ++corner) {
    std::vector<double> point(6);
    for (size_t d = 0; d < 6; ++d) {
      point[d] = ((corner >> d) & 1u) != 0 ? 1e200 : -1e200;
    }
    data.Append(point, 1.0);
  }
  const Dataset seeds = SeedsFor(data, 8);
  LloydConfig config;
  config.max_iterations = 20;
  const ScanCounts scans = ExpectPruningExact(data, seeds, config);
  EXPECT_EQ(PassesRun(scans, data.size()), 21u);
  auto model = RunWeightedLloyd(data, seeds, config);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->sse, std::numeric_limits<double>::infinity());
  EXPECT_FALSE(model->converged);
  EXPECT_EQ(model->iterations, 20u);
  Dataset points(6);
  for (size_t i = 0; i < data.size(); ++i) points.Append(data.Row(i));
  for (bool accelerate : {false, true}) {
    SCOPED_TRACE(accelerate ? "pruned" : "full scan");
    KMeansConfig fit;
    fit.k = 8;
    fit.restarts = 2;
    fit.lloyd.accelerate = accelerate;
    auto result = KMeans(fit).Fit(points);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status();
    EXPECT_NE(result.status().ToString().find("not finite"),
              std::string::npos)
        << result.status();
  }
}

TEST(PrunedPipelineTest, SavedModelsMatchFullScanAtOneAndFourCores) {
  // The production path: PipelineBuilder::Run, then SaveModel per cell.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("pmkm_lloyd_pipeline_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  std::vector<std::string> paths;
  for (int c = 0; c < 3; ++c) {
    Rng rng(40 + c);
    GridBucket bucket;
    bucket.cell = GridCellId{c, -c};
    bucket.points = GenerateMisrLikeCell(3000, &rng);
    paths.push_back((dir / (bucket.cell.ToString() + ".pmkb")).string());
    ASSERT_TRUE(WriteGridBucket(paths.back(), bucket).ok());
  }

  std::map<std::string, std::string> reference;  // cell → model bytes
  for (bool accelerate : {false, true}) {
    for (size_t cores : {1u, 4u}) {
      SCOPED_TRACE((accelerate ? "pruned, cores=" : "full scan, cores=") +
                   std::to_string(cores));
      KMeansConfig partial;
      partial.k = 8;
      partial.restarts = 3;
      partial.seed = 5;
      partial.lloyd.accelerate = accelerate;
      MergeKMeansConfig merge;
      merge.k = 8;
      merge.lloyd.accelerate = accelerate;
      ResourceModel resources;
      resources.cores = cores;
      resources.memory_bytes_per_operator = 6 * 8 * 1000;  // ~1000-pt chunks
      auto run = PipelineBuilder()
                     .WithPartialKMeans(partial)
                     .WithMerge(merge)
                     .WithResources(resources)
                     .Run(paths);
      ASSERT_TRUE(run.ok()) << run.status();
      ASSERT_EQ(run->cells.size(), paths.size());
      for (const auto& [id, cell] : run->cells) {
        const std::string path = (dir / (id.ToString() + ".pmkm")).string();
        ASSERT_TRUE(SaveModel(path, cell.model).ok());
        std::ifstream in(path, std::ios::binary);
        const std::string bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
        const auto [it, inserted] = reference.emplace(id.ToString(), bytes);
        if (!inserted) {
          EXPECT_TRUE(it->second == bytes) << id.ToString();
        }
      }
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pmkm
