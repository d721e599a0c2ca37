#include "cluster/lloyd.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>

#include "cluster/kernels/kernel.h"
#include "cluster/kmeans.h"
#include "cluster/metrics.h"
#include "cluster/serialize.h"
#include "data/generator.h"
#include "data/io.h"
#include "stream/engine.h"

namespace pmkm {
namespace {

Dataset MakeCentroids(std::vector<std::vector<double>> rows) {
  Dataset d(rows[0].size());
  for (const auto& r : rows) d.Append(r);
  return d;
}

TEST(LloydTest, ValidatesInput) {
  Rng rng(1);
  const LloydConfig config;
  WeightedDataset empty(2);
  EXPECT_TRUE(
      RunWeightedLloyd(empty, MakeCentroids({{0.0, 0.0}}), config, &rng)
          .status()
          .IsInvalidArgument());

  WeightedDataset data(2);
  data.Append(std::vector<double>{1.0, 1.0}, 1.0);
  EXPECT_TRUE(RunWeightedLloyd(data, Dataset(2), config, &rng)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      RunWeightedLloyd(data, MakeCentroids({{1.0}}), config, &rng)
          .status()
          .IsInvalidArgument());

  LloydConfig bad = config;
  bad.epsilon = -1.0;
  EXPECT_TRUE(
      RunWeightedLloyd(data, MakeCentroids({{0.0, 0.0}}), bad, &rng)
          .status()
          .IsInvalidArgument());
}

TEST(LloydTest, SingleClusterConvergesToWeightedMean) {
  Rng rng(2);
  WeightedDataset data(1);
  data.Append(std::vector<double>{0.0}, 1.0);
  data.Append(std::vector<double>{10.0}, 3.0);
  auto model = RunWeightedLloyd(data, MakeCentroids({{100.0}}),
                                LloydConfig{}, &rng);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->centroids(0, 0), 7.5, 1e-12);  // (0·1+10·3)/4
  EXPECT_DOUBLE_EQ(model->weights[0], 4.0);
  EXPECT_TRUE(model->converged);
}

TEST(LloydTest, TwoObviousClusters) {
  Rng rng(3);
  WeightedDataset data(1);
  for (double x : {0.0, 1.0, 2.0}) data.Append({&x, 1}, 1.0);
  for (double x : {100.0, 101.0, 102.0}) data.Append({&x, 1}, 1.0);
  auto model = RunWeightedLloyd(data, MakeCentroids({{0.0}, {90.0}}),
                                LloydConfig{}, &rng);
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
      RunWeightedLloyd(data, std::move(seeds), LloydConfig{}, &rng);
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
  auto model = RunWeightedLloyd(data, seeds, LloydConfig{}, &rng);
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
      RunWeightedLloyd(data, std::move(seeds), LloydConfig{}, &rng);
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
      data, MakeCentroids({{-1000.0}, {-1000.0}}), LloydConfig{}, &rng);
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
  Rng rng(8);
  WeightedDataset data(1);
  for (int i = 0; i < 3; ++i) {
    data.Append(std::vector<double>{5.0}, 1.0);
  }
  auto model = RunWeightedLloyd(data, MakeCentroids({{5.0}, {9.0}}),
                                LloydConfig{}, &rng);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->sse, 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(model->weights[0] + model->weights[1], 3.0);
}

TEST(LloydTest, TracksAssignmentsWhenAsked) {
  Rng rng(9);
  WeightedDataset data(1);
  for (double x : {0.0, 1.0, 100.0, 101.0}) data.Append({&x, 1}, 1.0);
  LloydConfig config;
  config.track_assignments = true;
  auto model = RunWeightedLloyd(data, MakeCentroids({{0.0}, {100.0}}),
                                config, &rng);
  ASSERT_TRUE(model.ok());
  ASSERT_EQ(model->assignments.size(), 4u);
  EXPECT_EQ(model->assignments[0], model->assignments[1]);
  EXPECT_EQ(model->assignments[2], model->assignments[3]);
  EXPECT_NE(model->assignments[0], model->assignments[2]);
}

TEST(LloydTest, MaxIterationsRespected) {
  Rng rng(10);
  const Dataset points = GenerateMisrLikeCell(3000, &rng);
  const WeightedDataset data = WeightedDataset::FromUnweighted(points);
  Dataset seeds(points.dim());
  for (size_t i = 0; i < 20; ++i) seeds.Append(points.Row(i * 71));
  LloydConfig config;
  config.max_iterations = 2;
  auto model = RunWeightedLloyd(data, std::move(seeds), config, &rng);
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
      RunWeightedLloyd(data, std::move(seeds), LloydConfig{}, &rng);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->converged);
  auto second =
      RunWeightedLloyd(data, first->centroids, LloydConfig{}, &rng);
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
  EXPECT_EQ(a.assignments, b.assignments);
}

// The scalar kernel, counting the points it is asked to scan: shows how
// much work the bounds saved without instrumenting the loop.
class CountingKernel final : public DistanceKernel {
 public:
  const char* name() const override { return "counting"; }
  KernelKind kind() const override { return KernelKind::kScalar; }

  void AssignBlock(const double* points, size_t n, size_t dim,
                   const CentroidBlock& centroids, uint32_t* assign,
                   double* dist2, double* second2,
                   const uint32_t* rows) const override {
    scanned += n;
    base_.AssignBlock(points, n, dim, centroids, assign, dist2, second2,
                      rows);
  }

  size_t PruneBlock(const double* points, size_t n, size_t dim,
                    const double* centroids, const uint32_t* assign,
                    const double* s, double shift, double* lower,
                    double* dist2, uint32_t* rows) const override {
    return base_.PruneBlock(points, n, dim, centroids, assign, s, shift,
                            lower, dist2, rows);
  }

  void AccumulateBlock(const double* points, const double* weights,
                       size_t n, size_t dim, const uint32_t* assign,
                       double* sums, double* cluster_weight) const override {
    base_.AccumulateBlock(points, weights, n, dim, assign, sums,
                          cluster_weight);
  }

  void CentroidDriftAndSeparation(const double* old_centroids,
                                  const double* new_centroids,
                                  const CentroidBlock& block, size_t k,
                                  size_t dim, double* drift,
                                  double* s) const override {
    base_.CentroidDriftAndSeparation(old_centroids, new_centroids, block, k,
                                     dim, drift, s);
  }

  mutable size_t scanned = 0;

 private:
  const DistanceKernel& base_ = GetKernel(KernelKind::kScalar);
};

struct ScanCounts {
  size_t full = 0;    // points scanned with pruning off
  size_t pruned = 0;  // ... and on
};

// Fits from `seeds` with pruning off and on and expects bitwise-equal
// models.
ScanCounts ExpectPruningExact(const WeightedDataset& data,
                              const Dataset& seeds, LloydConfig config) {
  CountingKernel full, pruned;
  config.track_assignments = true;
  config.kernel = &full;
  config.accelerate = false;
  Rng r1(1);
  auto a = RunWeightedLloyd(data, seeds, config, &r1);
  config.kernel = &pruned;
  config.accelerate = true;
  Rng r2(1);
  auto b = RunWeightedLloyd(data, seeds, config, &r2);
  EXPECT_TRUE(a.ok()) << a.status();
  EXPECT_TRUE(b.ok()) << b.status();
  if (a.ok() && b.ok()) ExpectBitwiseEqual(*a, *b);
  return {full.scanned, pruned.scanned};
}

TEST(HamerlyTest, SingleClusterIsWeightedMean) {
  Rng rng(2);
  WeightedDataset data(1);
  data.Append(std::vector<double>{0.0}, 1.0);
  data.Append(std::vector<double>{10.0}, 3.0);
  LloydConfig config;
  config.accelerate = true;
  auto model = RunWeightedLloyd(data, MakeCentroids({{-50.0}}), config, &rng);
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
  Rng seed_rng(77);
  auto seeds = SelectSeeds(data, 15, SeedingMethod::kRandom, &seed_rng);
  ASSERT_TRUE(seeds.ok());
  LloydConfig config;
  config.max_iterations = 500;
  const ScanCounts scans = ExpectPruningExact(data, *seeds, config);
  EXPECT_LT(scans.pruned, scans.full);  // the bounds actually did something
  // The counts a per-point scalar bound test recorded: equal counts show
  // that no pruning decision moved.
  const std::map<int, ScanCounts> recorded = {
      {300, {2700, 846}}, {1500, {25500, 4494}}, {6000, {150000, 24390}}};
  EXPECT_EQ(scans.full, recorded.at(n).full);
  EXPECT_EQ(scans.pruned, recorded.at(n).pruned);
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
  auto seeds = SelectSeeds(data, 8, SeedingMethod::kRandom, &seed_rng);
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
  auto seeds =
      SelectSeeds(data, 8, SeedingMethod::kKMeansPlusPlus, &seed_rng);
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
      data, MakeCentroids({{-500.0}, {-500.0}}), config, &rng);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(model->weights[0], 0.0);
  EXPECT_GT(model->weights[1], 0.0);
  std::vector<double> c{model->centroids(0, 0), model->centroids(1, 0)};
  std::sort(c.begin(), c.end());
  EXPECT_NEAR(c[0], 0.0, 1.0);
  EXPECT_NEAR(c[1], 80.0, 1.0);
}

TEST(HamerlyTest, TrackAssignmentsMatchesNearest) {
  Rng rng(6);
  const Dataset points = GenerateMisrLikeCell(500, &rng);
  const WeightedDataset data = WeightedDataset::FromUnweighted(points);
  Rng seed_rng(7);
  auto seeds = SelectSeeds(data, 6, SeedingMethod::kRandom, &seed_rng);
  ASSERT_TRUE(seeds.ok());
  LloydConfig config;
  config.track_assignments = true;
  config.accelerate = true;
  Rng r(1);
  auto model = RunWeightedLloyd(data, *seeds, config, &r);
  ASSERT_TRUE(model.ok());
  ASSERT_EQ(model->assignments.size(), 500u);
  for (size_t i = 0; i < 500; ++i) {
    EXPECT_EQ(model->assignments[i], model->Predict(points.Row(i)));
  }
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

Dataset RandomSeeds(const WeightedDataset& data, size_t k,
                    SeedingMethod method = SeedingMethod::kRandom) {
  Rng rng(k);
  auto seeds = SelectSeeds(data, k, method, &rng);
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
    c.seeds = RandomSeeds(c.data, 1);
  } else if (name == "k13_d5") {
    Rng rng(33);
    spec.dim = 5;
    c.data =
        WeightedDataset::FromUnweighted(GenerateMisrLikeCell(2000, &rng, spec));
    c.seeds = RandomSeeds(c.data, 13);
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
    c.seeds = RandomSeeds(c.data, 10);
  } else if (name == "weighted_merge") {
    // A merge step's input: 28 partitions' worth of weighted centroids,
    // seeded with the heaviest 40.
    Rng rng(35);
    const Dataset pooled = GenerateMisrLikeCell(28 * 40, &rng);
    c.data = WeightedDataset(pooled.dim());
    for (size_t i = 0; i < pooled.size(); ++i) {
      c.data.Append(pooled.Row(i), 1.0 + rng.UniformInt(500));
    }
    c.seeds = RandomSeeds(c.data, 40, SeedingMethod::kHeaviestWeight);
  } else if (name == "epsilon0") {
    // Runs to the iteration cap, so drift accumulates in the bounds.
    Rng rng(36);
    c.data = WeightedDataset::FromUnweighted(GenerateMisrLikeCell(3000, &rng));
    c.seeds = RandomSeeds(c.data, 20);
    c.config.epsilon = 0.0;
    c.config.max_iterations = 300;
  } else if (name == "chunk_2730") {
    // The production chunk size: 10 full tiles and a last tile of 170
    // points, 2 past a multiple of 4.
    Rng rng(37);
    c.data = WeightedDataset::FromUnweighted(GenerateMisrLikeCell(2730, &rng));
    c.seeds = RandomSeeds(c.data, 40);
  } else if (name == "n1027_d1") {
    // 3 points past a multiple of 4, one coordinate each.
    Rng rng(38);
    spec.dim = 1;
    c.data =
        WeightedDataset::FromUnweighted(GenerateMisrLikeCell(1027, &rng, spec));
    c.seeds = RandomSeeds(c.data, 7);
  } else {
    PMKM_CHECK(false) << "unknown case " << name;
  }
  return c;
}

class PruningDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(PruningDifferential, BitwiseEqualToFullScanOnEveryKernel) {
  const DiffCase c = MakeDiffCase(GetParam());
  LloydConfig config = c.config;
  config.track_assignments = true;
  config.accelerate = false;
  config.kernel = &GetKernel(KernelKind::kScalar);
  Rng ref_rng(1);
  auto ref = RunWeightedLloyd(c.data, c.seeds, config, &ref_rng);
  ASSERT_TRUE(ref.ok()) << ref.status();
  for (const DistanceKernel* kernel : AvailableKernels()) {
    for (bool accelerate : {false, true}) {
      SCOPED_TRACE(std::string(kernel->name()) +
                   (accelerate ? " pruned" : " full scan"));
      config.kernel = kernel;
      config.accelerate = accelerate;
      Rng rng(1);
      auto model = RunWeightedLloyd(c.data, c.seeds, config, &rng);
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
                      "n1027_d1"),
    [](const auto& info) { return std::string(info.param); });

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
