// Property suites, part 3: the partitioning-strategy design space (paper
// §6) and the refinement extension, swept parametrically on the stream
// engine. A slicing strategy is a point order: the engine cuts the cell
// into memory-sized chunks of ceil(N/p) points in that order.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "cluster/metrics.h"
#include "data/generator.h"
#include "data/slicing.h"
#include "stream/engine.h"

namespace pmkm {
namespace {

constexpr GridCellId kCell{0, 0};

// One cell through the engine in `splits` chunks of the given order.
Result<StreamRunResult> RunSliced(Dataset ordered, size_t k, size_t splits) {
  KMeansConfig partial;
  partial.k = k;
  partial.restarts = 2;
  MergeKMeansConfig merge;
  merge.k = k;
  const size_t chunk = (ordered.size() + splits - 1) / splits;
  return PipelineBuilder()
      .WithPartialKMeans(partial)
      .WithMerge(merge)
      .WithChunkPoints(chunk)
      .RunInMemory({GridBucket{kCell, std::move(ordered)}});
}

// ---------------------------------------------------------------------------
// S1: every slicing strategy yields a complete, non-empty partitioning and
// a valid end-to-end model.

enum class Slicing { kRandom, kContiguous, kSpatial, kStripes };

using StrategyParam = std::tuple<Slicing, int>;

class StrategyProperty : public ::testing::TestWithParam<StrategyParam> {};

const char* Name(Slicing s) {
  switch (s) {
    case Slicing::kRandom:
      return "random";
    case Slicing::kContiguous:
      return "contiguous";
    case Slicing::kSpatial:
      return "spatial";
    case Slicing::kStripes:
      return "stripes";
  }
  return "?";
}

// The cell's points in the order whose consecutive chunks are the slicing.
Dataset Order(const Dataset& cell, Slicing s, size_t p, Rng* rng) {
  Dataset ordered = cell;
  if (s == Slicing::kRandom) {
    ordered.Shuffle(rng);
  } else if (s == Slicing::kSpatial || s == Slicing::kStripes) {
    const auto side = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(p))));
    auto parts = s == Slicing::kSpatial ? SplitSpatialGrid(cell, side)
                                        : SplitStripes(cell, p);
    PMKM_CHECK(parts.ok()) << parts.status();
    ordered.Clear();
    for (const Dataset& part : *parts) ordered.AppendAll(part);
  }
  return ordered;
}

TEST_P(StrategyProperty, EndToEndInvariants) {
  const auto [strategy, p] = GetParam();
  Rng rng(static_cast<uint64_t>(p) * 997 +
          static_cast<uint64_t>(strategy));
  const Dataset cell = GenerateMisrLikeCell(3000, &rng);

  auto run = RunSliced(Order(cell, strategy, static_cast<size_t>(p), &rng),
                       8, static_cast<size_t>(p));
  ASSERT_TRUE(run.ok()) << Name(strategy) << " p=" << p << ": "
                        << run.status();
  const ClusteringModel& model = run->cells.at(kCell).model;

  // Mass conservation holds under every slicing: the order is a
  // permutation of the cell.
  double mass = 0.0;
  for (double w : model.weights) mass += w;
  EXPECT_NEAR(mass, 3000.0, 1e-6);

  // Every slicing is cut into at most p memory-sized chunks.
  ASSERT_EQ(run->queues[0].name, "points");
  EXPECT_GE(run->queues[0].total_pushed, 1u);
  EXPECT_LE(run->queues[0].total_pushed, static_cast<size_t>(p));

  // The model must beat the trivial single-mean model on raw points.
  Dataset mean_model(cell.dim());
  mean_model.Append(cell.Mean());
  EXPECT_LT(Sse(model.centroids, cell), Sse(mean_model, cell));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StrategyProperty,
    ::testing::Combine(::testing::Values(Slicing::kRandom,
                                         Slicing::kContiguous,
                                         Slicing::kSpatial,
                                         Slicing::kStripes),
                       ::testing::Values(2, 6, 12)),
    [](const ::testing::TestParamInfo<StrategyParam>& info) {
      return std::string(Name(std::get<0>(info.param))) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// S2: refinement is monotone — more iterations of the caller-side second
// look (Lloyd over the raw cell, seeded with the merged centroids) never
// increase the raw error.

class RefineProperty : public ::testing::TestWithParam<int> {};

TEST_P(RefineProperty, RawErrorNonIncreasingInBudget) {
  const int n = GetParam();
  Rng rng(static_cast<uint64_t>(n));
  const Dataset cell = GenerateMisrLikeCell(static_cast<size_t>(n), &rng);
  auto run = RunSliced(cell, 10, 5);
  ASSERT_TRUE(run.ok()) << run.status();
  const Dataset& merged = run->cells.at(kCell).model.centroids;

  double prev = Sse(merged, cell);
  for (size_t budget : {1u, 3u, 10u}) {
    LloydConfig refine;
    refine.max_iterations = budget;
    Rng lloyd_rng(1);
    auto refined = RunWeightedLloyd(WeightedDataset::FromUnweighted(cell),
                                    merged, refine, &lloyd_rng);
    ASSERT_TRUE(refined.ok());
    const double raw = Sse(refined->centroids, cell);
    EXPECT_LE(raw, prev * (1.0 + 1e-9)) << "budget " << budget;
    prev = raw;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RefineProperty,
                         ::testing::Values(800, 4000));

}  // namespace
}  // namespace pmkm
