// End-to-end integration: MISR swath simulation → grid buckets on disk →
// streamed partial/merge clustering → histogram compression. Exercises
// every library working together the way examples/misr_compression does.

#include <gtest/gtest.h>

#include <filesystem>

#include "cluster/metrics.h"
#include "data/misr.h"
#include "data/synthetic.h"
#include "histogram/histogram.h"
#include "stream/engine.h"
#include "stream/plan.h"

namespace pmkm {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pmkm_e2e_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(PipelineTest, SwathToHistograms) {
  // 1. Simulate and bin (coarse 15° cells keep the test fast).
  MisrSimConfig sim_config;
  sim_config.seed = 99;
  MisrSwathSimulator sim(sim_config);
  auto grid = sim.SimulateToGrid(3, /*cell_degrees=*/15.0);
  ASSERT_TRUE(grid.ok());
  ASSERT_GT(grid->num_cells(), 5u);

  // 2. Stage bucket files for cells with enough points.
  std::vector<std::string> paths;
  std::map<GridCellId, Dataset> originals;
  for (const auto& [id, bucket] : grid->buckets()) {
    if (bucket.size() < 100) continue;
    GridBucket gb;
    gb.cell = id;
    gb.points = bucket;
    const std::string path = (dir_ / (id.ToString() + ".pmkb")).string();
    ASSERT_TRUE(WriteGridBucket(path, gb).ok());
    paths.push_back(path);
    originals[id] = bucket;
  }
  ASSERT_GT(paths.size(), 2u);

  // 3. One streamed query plan over every bucket.
  KMeansConfig partial;
  partial.k = 8;
  partial.restarts = 2;
  MergeKMeansConfig merge;
  merge.k = 8;
  ResourceModel resources;
  resources.cores = 3;
  resources.memory_bytes_per_operator = 64 << 10;
  auto run = PipelineBuilder()
                 .WithPartialKMeans(partial)
                 .WithMerge(merge)
                 .WithResources(resources)
                 .Run(paths);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_EQ(run->cells.size(), paths.size());

  // 4. Every cell: mass conservation, sensible quality, compressible.
  for (const auto& [id, cell] : run->cells) {
    const Dataset& original = originals.at(id);
    EXPECT_EQ(cell.input_points, original.size());
    double mass = 0.0;
    for (double w : cell.model.weights) mass += w;
    EXPECT_NEAR(mass, static_cast<double>(original.size()), 1e-6);

    // Quality: beat the trivial 1-cluster model on raw points.
    Dataset mean_model(original.dim());
    mean_model.Append(original.Mean());
    EXPECT_LT(Sse(cell.model.centroids, original),
              Sse(mean_model, original));

    auto hist = MultivariateHistogram::FromModel(cell.model);
    ASSERT_TRUE(hist.ok());
    EXPECT_GT(hist->CompressionRatio(original.size()), 1.0);
    EXPECT_NEAR(hist->total_count(),
                static_cast<double>(original.size()), 1e-6);
  }
}

TEST_F(PipelineTest, StreamedRunIsDeterministic) {
  MisrSwathSimulator sim;
  auto grid = sim.SimulateToGrid(1, 20.0);
  ASSERT_TRUE(grid.ok());
  std::vector<std::string> paths;
  for (const auto& [id, bucket] : grid->buckets()) {
    if (bucket.size() < 200) continue;
    GridBucket gb;
    gb.cell = id;
    gb.points = bucket;
    const std::string path = (dir_ / (id.ToString() + ".pmkb")).string();
    ASSERT_TRUE(WriteGridBucket(path, gb).ok());
    paths.push_back(path);
    if (paths.size() == 3) break;
  }
  ASSERT_GE(paths.size(), 1u);

  KMeansConfig partial;
  partial.k = 5;
  partial.restarts = 2;
  partial.seed = 31;
  MergeKMeansConfig merge;
  merge.k = 5;
  ResourceModel resources;
  resources.cores = 4;  // clones must not affect results
  resources.memory_bytes_per_operator = 32 << 10;

  PipelineBuilder builder;
  builder.WithPartialKMeans(partial).WithMerge(merge);
  auto a = builder.WithResources(resources).Run(paths);
  resources.cores = 2;
  auto b = builder.WithResources(resources).Run(paths);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->cells.size(), b->cells.size());
  for (const auto& [id, cell] : a->cells) {
    const auto& other = b->cells.at(id);
    EXPECT_EQ(cell.model.centroids, other.model.centroids);
    EXPECT_EQ(cell.model.sse, other.model.sse);
  }
}

TEST_F(PipelineTest, HistogramSamplePreservesCellMoments) {
  // Cluster a cell, build the spread-aware histogram from raw data, sample
  // a reconstruction, and compare first moments — the compression fidelity
  // loop of the motivating application.
  Rng rng(5);
  MisrSwathSimulator sim;
  const Dataset swath = SimulateSwathPoints(&sim, 20000);
  GridIndex grid(swath.dim(), 30.0);
  ASSERT_TRUE(grid.AddAll(swath).ok());
  const Dataset* biggest = nullptr;
  for (const auto& [id, bucket] : grid.buckets()) {
    if (biggest == nullptr || bucket.size() > biggest->size()) {
      biggest = &bucket;
    }
  }
  ASSERT_NE(biggest, nullptr);
  ASSERT_GT(biggest->size(), 300u);

  KMeansConfig config;
  config.k = 12;
  config.restarts = 3;
  auto model = KMeans(config).Fit(*biggest);
  ASSERT_TRUE(model.ok());
  auto hist = MultivariateHistogram::Build(*model, *biggest);
  ASSERT_TRUE(hist.ok());

  const Dataset sample = hist->SampleReconstruction(20000, &rng);
  const auto orig_mean = biggest->Mean();
  const auto sample_mean = sample.Mean();
  for (size_t d = 2; d < biggest->dim(); ++d) {  // radiance attributes
    EXPECT_NEAR(sample_mean[d], orig_mean[d],
                0.05 * std::max(1.0, std::abs(orig_mean[d])));
  }
}

}  // namespace
}  // namespace pmkm
