#include "histogram/ecvq.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "cluster/merge.h"
#include "cluster/metrics.h"
#include "data/generator.h"

namespace pmkm {
namespace {

EcvqConfig Config(size_t max_k, double lambda) {
  EcvqConfig config;
  config.max_k = max_k;
  config.lambda = lambda;
  return config;
}

TEST(EcvqTest, Validation) {
  Rng rng(1);
  const Dataset data = GenerateUniform(100, 2, 0, 1, &rng);
  EXPECT_TRUE(
      FitEcvq(Dataset(2), Config(4, 1.0)).status().IsInvalidArgument());
  EXPECT_TRUE(FitEcvq(data, Config(0, 1.0)).status().IsInvalidArgument());
  EXPECT_TRUE(
      FitEcvq(data, Config(4, -1.0)).status().IsInvalidArgument());
}

TEST(EcvqTest, LambdaZeroKeepsFullCodebook) {
  Rng rng(2);
  const Dataset data = GenerateMisrLikeCell(2000, &rng);
  auto result = FitEcvq(data, Config(16, 0.0));
  ASSERT_TRUE(result.ok());
  // With no rate penalty nothing should starve on rich continuous data.
  EXPECT_EQ(result->effective_k, 16u);
  EXPECT_GT(result->rate_bits, 0.0);
}

TEST(EcvqTest, LargerLambdaShrinksEffectiveK) {
  Rng rng(3);
  const Dataset data = GenerateMisrLikeCell(3000, &rng);
  auto mild = FitEcvq(data, Config(32, 0.0));
  auto heavy = FitEcvq(data, Config(32, 2000.0));
  ASSERT_TRUE(mild.ok() && heavy.ok());
  EXPECT_LT(heavy->effective_k, mild->effective_k);
  EXPECT_GE(heavy->effective_k, 1u);
  // Fewer codewords → lower rate, higher distortion.
  EXPECT_LT(heavy->rate_bits, mild->rate_bits);
  EXPECT_GT(heavy->distortion, mild->distortion);
}

TEST(EcvqTest, AdaptsKToTrueClusterCount) {
  // 3 well-separated blobs, max_k = 16 and a moderate λ: ECVQ should land
  // near k = 3, the paper's "find an optimal k for a partition on the fly".
  Rng rng(4);
  std::vector<std::vector<double>> centers;
  const Dataset data =
      GenerateSeparatedClusters(3000, 2, 3, 300.0, 1.0, &rng, &centers);
  auto result = FitEcvq(data, Config(16, 100.0));
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->effective_k, 3u);
  EXPECT_LE(result->effective_k, 6u);
}

// Adaptive partial/merge (§3.3 remarks) composed from the pieces: ECVQ on
// `partitions` consecutive slices of the cell, the weight>0 codewords pooled,
// and MergeKMeans at the largest per-slice effective k.
struct AdaptiveRun {
  std::vector<size_t> partition_effective_k;
  size_t final_k = 0;
  ClusteringModel model;
};

AdaptiveRun RunAdaptivePartialMerge(const Dataset& cell, size_t max_k,
                                    double lambda, size_t partitions) {
  AdaptiveRun run;
  WeightedDataset pooled(cell.dim());
  for (size_t i = 0; i < partitions; ++i) {
    const size_t begin = i * cell.size() / partitions;
    const size_t end = (i + 1) * cell.size() / partitions;
    auto partial = FitEcvq(cell.Slice(begin, end), Config(max_k, lambda));
    EXPECT_TRUE(partial.ok()) << partial.status();
    if (!partial.ok()) return run;
    run.partition_effective_k.push_back(partial->effective_k);
    run.final_k = std::max(run.final_k, partial->effective_k);
    const ClusteringModel& codebook = partial->model;
    for (size_t j = 0; j < codebook.k(); ++j) {
      if (codebook.weights[j] > 0.0) {
        pooled.Append(codebook.centroids.Row(j), codebook.weights[j]);
      }
    }
  }
  MergeKMeansConfig merge;
  merge.k = run.final_k;
  auto model = MergeKMeans(merge).Merge(pooled);
  EXPECT_TRUE(model.ok()) << model.status();
  if (model.ok()) run.model = *std::move(model);
  return run;
}

TEST(AdaptivePartialMergeTest, MassConservedAndKBounded) {
  Rng rng(1);
  const Dataset cell = GenerateMisrLikeCell(4000, &rng);
  const AdaptiveRun run = RunAdaptivePartialMerge(cell, 32, 10.0, 8);
  ASSERT_EQ(run.partition_effective_k.size(), 8u);
  for (size_t ek : run.partition_effective_k) {
    EXPECT_GE(ek, 1u);
    EXPECT_LE(ek, 32u);
  }
  double mass = 0.0;
  for (double w : run.model.weights) mass += w;
  EXPECT_NEAR(mass, 4000.0, 1e-6);
  EXPECT_LE(run.model.k(), run.final_k);
}

TEST(AdaptivePartialMergeTest, AdaptsToTrueStructure) {
  // A 3-blob cell with max_k=16: each partition should starve most
  // codewords and land near 3.
  Rng rng(3);
  const Dataset cell =
      GenerateSeparatedClusters(3000, 2, 3, 400.0, 1.0, &rng);
  const AdaptiveRun run = RunAdaptivePartialMerge(cell, 16, 100.0, 5);
  ASSERT_EQ(run.partition_effective_k.size(), 5u);
  for (size_t ek : run.partition_effective_k) {
    EXPECT_GE(ek, 3u);
    EXPECT_LE(ek, 8u);
  }
  double mass = 0.0;
  for (double w : run.model.weights) mass += w;
  EXPECT_NEAR(mass, 3000.0, 1e-6);
  // The final model should cover the 3 blobs well.
  Dataset mean_model(cell.dim());
  mean_model.Append(cell.Mean());
  EXPECT_LT(Sse(run.model.centroids, cell), 0.05 * Sse(mean_model, cell));
}

TEST(EcvqTest, WeightsSumToTotalMass) {
  Rng rng(5);
  const Dataset data = GenerateMisrLikeCell(1000, &rng);
  auto result = FitEcvq(data, Config(8, 1.0));
  ASSERT_TRUE(result.ok());
  double mass = 0.0;
  for (double w : result->model.weights) mass += w;
  EXPECT_NEAR(mass, 1000.0, 1e-6);
}

TEST(EcvqTest, RateIsEntropyBounded) {
  Rng rng(6);
  const Dataset data = GenerateMisrLikeCell(1500, &rng);
  auto result = FitEcvq(data, Config(16, 1.0));
  ASSERT_TRUE(result.ok());
  // Entropy of k symbols ≤ log2 k.
  EXPECT_LE(result->rate_bits,
            std::log2(static_cast<double>(result->effective_k)) + 1e-9);
  EXPECT_GE(result->rate_bits, 0.0);
}

TEST(EcvqTest, DeterministicForSeed) {
  Rng rng(7);
  const Dataset data = GenerateMisrLikeCell(800, &rng);
  auto a = FitEcvq(data, Config(12, 5.0));
  auto b = FitEcvq(data, Config(12, 5.0));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->model.centroids, b->model.centroids);
  EXPECT_EQ(a->effective_k, b->effective_k);
}

TEST(EcvqTest, WeightedInputSupported) {
  WeightedDataset data(1);
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    data.Append(std::vector<double>{rng.Normal(0.0, 1.0)}, 2.0);
    data.Append(std::vector<double>{rng.Normal(50.0, 1.0)}, 1.0);
  }
  auto result = FitEcvq(data, Config(8, 50.0));
  ASSERT_TRUE(result.ok());
  double mass = 0.0;
  for (double w : result->model.weights) mass += w;
  EXPECT_NEAR(mass, 600.0, 1e-6);
}

}  // namespace
}  // namespace pmkm
