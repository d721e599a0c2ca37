// Property-based suites (parameterized gtest): invariants that must hold
// across sweeps of the algorithm's configuration space, not just at one
// hand-picked setting.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <set>
#include <tuple>

#include "cluster/metrics.h"
#include "data/generator.h"
#include "data/io.h"
#include "stream/engine.h"

namespace pmkm {
namespace {

// ---------------------------------------------------------------------------
// P1: partial/merge invariants over (n, splits, k), on the stream engine.

using PmParam = std::tuple<int, int, int>;  // n, splits, k

class PartialMergeProperty : public ::testing::TestWithParam<PmParam> {};

TEST_P(PartialMergeProperty, Invariants) {
  const auto [n, splits, k] = GetParam();
  Rng rng(static_cast<uint64_t>(n * 31 + splits * 7 + k));
  const Dataset cell = GenerateMisrLikeCell(static_cast<size_t>(n), &rng);

  KMeansConfig partial;
  partial.k = static_cast<size_t>(k);
  partial.restarts = 2;
  MergeKMeansConfig merge;
  merge.k = partial.k;
  const auto chunk = static_cast<size_t>((n + splits - 1) / splits);
  auto run = PipelineBuilder()
                 .WithPartialKMeans(partial)
                 .WithMerge(merge)
                 .WithChunkPoints(chunk)
                 .RunInMemory({GridBucket{GridCellId{0, 0}, cell}});
  ASSERT_TRUE(run.ok()) << run.status();
  const CellClustering& result = run->cells.at(GridCellId{0, 0});

  // I1: never more than k output centroids.
  EXPECT_LE(result.model.k(), static_cast<size_t>(k));
  EXPECT_GE(result.model.k(), 1u);

  // I2: total output weight equals N (mass conservation through both
  // phases).
  double mass = 0.0;
  for (double w : result.model.weights) mass += w;
  EXPECT_NEAR(mass, static_cast<double>(n), 1e-6 * n);
  EXPECT_EQ(result.input_points, static_cast<size_t>(n));

  // I3: errors are finite and non-negative.
  EXPECT_GE(result.model.sse, 0.0);
  EXPECT_TRUE(std::isfinite(result.model.sse));

  // I4: the model beats the trivial single-mean model on raw data
  // whenever k > 1 and the cell is non-degenerate.
  if (k > 1) {
    Dataset mean_model(cell.dim());
    mean_model.Append(cell.Mean());
    EXPECT_LE(Sse(result.model.centroids, cell),
              Sse(mean_model, cell) * (1.0 + 1e-9));
  }

  // I5: the cell was cut into at most `splits` chunks.
  ASSERT_EQ(run->queues[0].name, "points");
  const size_t chunks = run->queues[0].total_pushed;
  EXPECT_GE(chunks, 1u);
  EXPECT_LE(chunks, static_cast<size_t>(splits));

  // I6: pooled centroid count is bounded by chunks·k.
  EXPECT_LE(result.pooled_centroids, chunks * static_cast<size_t>(k));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartialMergeProperty,
    ::testing::Combine(::testing::Values(40, 250, 1000, 5000),
                       ::testing::Values(1, 3, 5, 10),
                       ::testing::Values(1, 5, 17)),
    [](const ::testing::TestParamInfo<PmParam>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_p" +
             std::to_string(std::get<1>(info.param)) + "_k" +
             std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// P2: Lloyd iteration error is monotonically non-increasing in the
// iteration budget (same seeds, growing max_iterations).

class LloydMonotoneProperty : public ::testing::TestWithParam<int> {};

TEST_P(LloydMonotoneProperty, SseNonIncreasingInIterationBudget) {
  const int n = GetParam();
  Rng rng(static_cast<uint64_t>(n));
  const Dataset points = GenerateMisrLikeCell(static_cast<size_t>(n), &rng);
  const WeightedDataset data = WeightedDataset::FromUnweighted(points);
  Rng seed_rng(7);
  auto seeds =
      SelectSeeds(data, 12, SeedingMethod::kRandom, &seed_rng);
  ASSERT_TRUE(seeds.ok());

  double prev = std::numeric_limits<double>::infinity();
  for (size_t budget : {1u, 2u, 4u, 8u, 16u, 64u}) {
    LloydConfig config;
    config.max_iterations = budget;
    Rng lloyd_rng(11);
    auto model = RunWeightedLloyd(data, *seeds, config, &lloyd_rng);
    ASSERT_TRUE(model.ok());
    EXPECT_LE(model->sse, prev * (1.0 + 1e-9))
        << "budget " << budget << " worsened the error";
    prev = model->sse;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LloydMonotoneProperty,
                         ::testing::Values(100, 500, 2000));

// ---------------------------------------------------------------------------
// P3: splitting preserves the multiset of points for any (n, parts).

using SplitParam = std::tuple<int, int>;

class SplitProperty : public ::testing::TestWithParam<SplitParam> {};

TEST_P(SplitProperty, PartitionIsExact) {
  const auto [n, parts] = GetParam();
  Rng rng(static_cast<uint64_t>(n * 131 + parts));
  const Dataset data =
      GenerateUniform(static_cast<size_t>(n), 3, -5, 5, &rng);

  for (bool random : {true, false}) {
    std::vector<Dataset> chunks =
        random ? SplitRandom(data, static_cast<size_t>(parts), &rng)
               : SplitContiguous(data, static_cast<size_t>(parts));
    ASSERT_EQ(chunks.size(), static_cast<size_t>(parts));
    size_t total = 0;
    std::multiset<double> seen;
    size_t max_size = 0, min_size = data.size() + 1;
    for (const Dataset& c : chunks) {
      total += c.size();
      max_size = std::max(max_size, c.size());
      min_size = std::min(min_size, c.size());
      seen.insert(c.values().begin(), c.values().end());
    }
    EXPECT_EQ(total, data.size());
    EXPECT_LE(max_size - min_size, 1u);  // near-equal sizes
    std::multiset<double> original(data.values().begin(),
                                   data.values().end());
    EXPECT_EQ(seen, original);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SplitProperty,
    ::testing::Combine(::testing::Values(1, 7, 100, 1003),
                       ::testing::Values(1, 2, 5, 16)));

// ---------------------------------------------------------------------------
// P4: bucket files round-trip for any (points, dim) including chunked
// reads with awkward chunk sizes.

using IoParam = std::tuple<int, int, int>;  // n, dim, chunk

class IoRoundTripProperty : public ::testing::TestWithParam<IoParam> {};

TEST_P(IoRoundTripProperty, ChunkedReadReassemblesExactly) {
  const auto [n, dim, chunk] = GetParam();
  Rng rng(static_cast<uint64_t>(n * 17 + dim * 3 + chunk));
  GridBucket bucket;
  bucket.cell = GridCellId{-45, 170};
  bucket.points = GenerateUniform(static_cast<size_t>(n),
                                  static_cast<size_t>(dim), -1e6, 1e6,
                                  &rng);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("pmkm_prop_io_" + std::to_string(::getpid()) + "_" +
        std::to_string(n) + "_" + std::to_string(dim) + "_" +
        std::to_string(chunk) + ".pmkb"))
          .string();
  ASSERT_TRUE(WriteGridBucket(path, bucket).ok());

  auto reader = GridBucketReader::Open(path);
  ASSERT_TRUE(reader.ok());
  Dataset all(static_cast<size_t>(dim));
  Dataset piece(static_cast<size_t>(dim));
  for (;;) {
    auto more = reader->Next(static_cast<size_t>(chunk), &piece);
    ASSERT_TRUE(more.ok()) << more.status();
    if (!*more) break;
    all.AppendAll(piece);
  }
  EXPECT_EQ(all, bucket.points);
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IoRoundTripProperty,
    ::testing::Combine(::testing::Values(0, 1, 63, 1000),
                       ::testing::Values(1, 6, 17),
                       ::testing::Values(1, 7, 4096)));

// ---------------------------------------------------------------------------
// P5: weighted k-means ≡ k-means on replicated points, across k.

class WeightEquivalenceProperty : public ::testing::TestWithParam<int> {};

TEST_P(WeightEquivalenceProperty, WeightedSseEqualsReplicatedSse) {
  const int k = GetParam();
  Rng rng(static_cast<uint64_t>(k * 1009));
  WeightedDataset weighted(3);
  Dataset replicated(3);
  for (int i = 0; i < 120; ++i) {
    const std::vector<double> p{rng.Uniform(0, 50), rng.Uniform(0, 50),
                                rng.Uniform(0, 50)};
    const int w = 1 + static_cast<int>(rng.UniformInt(5));
    weighted.Append(p, static_cast<double>(w));
    for (int r = 0; r < w; ++r) replicated.Append(p);
  }
  KMeansConfig config;
  config.k = static_cast<size_t>(k);
  config.restarts = 3;
  config.seed = 404;
  auto model = KMeans(config).FitWeighted(weighted);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->sse, Sse(model->centroids, replicated),
              1e-6 * (1.0 + model->sse));
}

INSTANTIATE_TEST_SUITE_P(Sweep, WeightEquivalenceProperty,
                         ::testing::Values(1, 2, 8, 32, 64));

// ---------------------------------------------------------------------------
// P6: grid binning is total and exact — every generated point lands in
// exactly one cell whose bounds contain it, across cell sizes.

class GridBinningProperty : public ::testing::TestWithParam<double> {};

TEST_P(GridBinningProperty, EveryPointInItsCellBounds) {
  const double cell_deg = GetParam();
  Rng rng(static_cast<uint64_t>(cell_deg * 1000));
  GridIndex index(2, cell_deg);
  Dataset points(2);
  for (int i = 0; i < 2000; ++i) {
    points.Append(std::vector<double>{rng.Uniform(-90, 90),
                                      rng.Uniform(-180, 180)});
  }
  ASSERT_TRUE(index.AddAll(points).ok());
  EXPECT_EQ(index.num_points(), 2000u);
  size_t total = 0;
  for (const auto& [id, bucket] : index.buckets()) {
    total += bucket.size();
    for (size_t i = 0; i < bucket.size(); ++i) {
      const double lat = bucket(i, 0);
      const double lon = bucket(i, 1);
      EXPECT_GE(lat, id.lat_index * cell_deg - 1e-9);
      EXPECT_LT(lat, (id.lat_index + 1) * cell_deg + 1e-9);
      EXPECT_GE(lon, id.lon_index * cell_deg - 1e-9);
      EXPECT_LT(lon, (id.lon_index + 1) * cell_deg + 1e-9);
    }
  }
  EXPECT_EQ(total, 2000u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, GridBinningProperty,
                         ::testing::Values(0.5, 1.0, 5.0, 30.0));

}  // namespace
}  // namespace pmkm
