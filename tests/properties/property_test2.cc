// Property suites, part 2: invariants of the compression stack
// (histograms, ECVQ) and the baseline algorithms across parameter sweeps.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "baselines/birch.h"
#include "baselines/online.h"
#include "baselines/stream_ls.h"
#include "cluster/kmeans.h"
#include "cluster/metrics.h"
#include "data/generator.h"
#include "data/synthetic.h"
#include "histogram/ecvq.h"
#include "histogram/histogram.h"

namespace pmkm {
namespace {

// ---------------------------------------------------------------------------
// H1: histogram invariants over (n, k).

using HistParam = std::tuple<int, int>;

class HistogramProperty : public ::testing::TestWithParam<HistParam> {};

TEST_P(HistogramProperty, Invariants) {
  const auto [n, k] = GetParam();
  Rng rng(static_cast<uint64_t>(n * 11 + k));
  const Dataset cell = GenerateMisrLikeCell(static_cast<size_t>(n), &rng);
  KMeansConfig config;
  config.k = static_cast<size_t>(k);
  config.restarts = 2;
  auto model = KMeans(config).Fit(cell);
  ASSERT_TRUE(model.ok());
  auto hist = MultivariateHistogram::Build(*model, cell);
  ASSERT_TRUE(hist.ok());

  // I1: total count equals N; every bucket is populated.
  EXPECT_NEAR(hist->total_count(), static_cast<double>(n), 1e-9);
  for (const auto& b : hist->buckets()) EXPECT_GT(b.count, 0.0);

  // I2: encoding maps every point to a valid bucket, and the decoded
  // representative is no farther than 2×(max spread + model error bound):
  // concretely, reconstruction MSE ≤ model MSE (means are optimal).
  EXPECT_LE(hist->ReconstructionMse(cell),
            model->mse_per_point * (1.0 + 1e-9));

  // I3: compression actually compresses once n > buckets · (2·dim + 1).
  const size_t breakeven = hist->num_buckets() * (2 * cell.dim() + 1);
  if (static_cast<size_t>(n) > breakeven) {
    EXPECT_GT(hist->CompressionRatio(cell.size()), 1.0);
  }

  // I4: sampling returns the requested count with the right shape.
  Rng sample_rng(7);
  const Dataset sample = hist->SampleReconstruction(256, &sample_rng);
  EXPECT_EQ(sample.size(), 256u);
  EXPECT_EQ(sample.dim(), cell.dim());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HistogramProperty,
    ::testing::Combine(::testing::Values(100, 1000, 8000),
                       ::testing::Values(2, 10, 40)),
    [](const ::testing::TestParamInfo<HistParam>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// H2: ECVQ's rate/distortion trade-off is monotone in λ.

class EcvqMonotoneProperty : public ::testing::TestWithParam<int> {};

TEST_P(EcvqMonotoneProperty, RateFallsDistortionRisesWithLambda) {
  const int n = GetParam();
  Rng rng(static_cast<uint64_t>(n));
  const Dataset cell = GenerateMisrLikeCell(static_cast<size_t>(n), &rng);
  double prev_rate = std::numeric_limits<double>::infinity();
  size_t prev_k = std::numeric_limits<size_t>::max();
  for (double lambda : {0.0, 10.0, 200.0, 5000.0}) {
    EcvqConfig config;
    config.max_k = 32;
    config.lambda = lambda;
    auto result = FitEcvq(cell, config);
    ASSERT_TRUE(result.ok()) << result.status();
    // Rate (entropy) and effective k are non-increasing in λ, modulo tiny
    // numeric wiggle on the rate.
    EXPECT_LE(result->rate_bits, prev_rate + 0.2) << "lambda " << lambda;
    EXPECT_LE(result->effective_k, prev_k) << "lambda " << lambda;
    prev_rate = result->rate_bits;
    prev_k = result->effective_k;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, EcvqMonotoneProperty,
                         ::testing::Values(500, 3000));

// ---------------------------------------------------------------------------
// H3: BIRCH leaf mass equals inserted mass for any (n, envelope).

using BirchParam = std::tuple<int, int>;

class BirchProperty : public ::testing::TestWithParam<BirchParam> {};

TEST_P(BirchProperty, LeafMassConservedUnderRebuilds) {
  const auto [n, max_leaves] = GetParam();
  Rng rng(static_cast<uint64_t>(n * 13 + max_leaves));
  const Dataset data = GenerateMisrLikeCell(static_cast<size_t>(n), &rng);
  BirchConfig config;
  config.k = 5;
  config.max_leaf_entries = static_cast<size_t>(max_leaves);
  config.global.restarts = 2;
  Birch birch(data.dim(), config);
  ASSERT_TRUE(birch.InsertAll(data).ok());
  EXPECT_LE(birch.num_leaf_entries(),
            static_cast<size_t>(max_leaves));
  EXPECT_NEAR(birch.LeafCentroids().TotalWeight(),
              static_cast<double>(n), 1e-6 * n);
  auto model = birch.Finish();
  ASSERT_TRUE(model.ok());
  double mass = 0.0;
  for (double w : model->weights) mass += w;
  EXPECT_NEAR(mass, static_cast<double>(n), 1e-6 * n);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BirchProperty,
    ::testing::Combine(::testing::Values(200, 2000, 6000),
                       ::testing::Values(16, 64, 256)));

// ---------------------------------------------------------------------------
// H4: STREAM LocalSearch cost never exceeds the trivial one-median cost.

class StreamLsProperty : public ::testing::TestWithParam<int> {};

TEST_P(StreamLsProperty, BeatsSingleMedianCost) {
  const int k = GetParam();
  Rng rng(static_cast<uint64_t>(k * 7919));
  const Dataset points = GenerateMisrLikeCell(1200, &rng);
  const WeightedDataset data = WeightedDataset::FromUnweighted(points);
  StreamLsConfig config;
  config.k = static_cast<size_t>(k);
  config.max_sweeps = 4;
  auto medians = LocalSearchKMedian(data, config, &rng);
  ASSERT_TRUE(medians.ok());
  const double cost = KMedianCost(medians->points(), data);

  // Baseline: the best of 50 probed single-point medians. Local search
  // with k medians should beat it for k > 1 and come close for k = 1
  // (it samples swaps, so a small slack covers an unlucky draw).
  Dataset best_single(points.dim());
  best_single.Append(points.Row(0));
  double single_cost = KMedianCost(best_single, data);
  for (size_t i = 1; i < 50; ++i) {
    Dataset cand(points.dim());
    cand.Append(points.Row(i * 24 % points.size()));
    single_cost = std::min(single_cost, KMedianCost(cand, data));
  }
  if (k > 1) {
    EXPECT_LT(cost, single_cost);
  } else {
    EXPECT_LE(cost, single_cost * 1.05);
  }
  EXPECT_NEAR(medians->TotalWeight(), 1200.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, StreamLsProperty,
                         ::testing::Values(1, 4, 16, 40));

// ---------------------------------------------------------------------------
// H5: online k-means weights always sum to the points seen.

class OnlineProperty : public ::testing::TestWithParam<int> {};

TEST_P(OnlineProperty, WeightsTrackPointsSeen) {
  const int k = GetParam();
  Rng rng(static_cast<uint64_t>(k));
  OnlineKMeansConfig config;
  config.k = static_cast<size_t>(k);
  OnlineKMeans online(4, config);
  const Dataset data = GenerateUniform(700, 4, -10, 10, &rng);
  ASSERT_TRUE(online.ObserveAll(data).ok());
  auto model = online.Snapshot(&data);
  ASSERT_TRUE(model.ok());
  double mass = 0.0;
  for (double w : model->weights) mass += w;
  EXPECT_NEAR(mass, 700.0, 1e-9);
  EXPECT_LE(model->k(), static_cast<size_t>(k));
}

INSTANTIATE_TEST_SUITE_P(Sweep, OnlineProperty,
                         ::testing::Values(1, 3, 25, 200));

}  // namespace
}  // namespace pmkm
