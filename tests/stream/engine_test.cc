// EngineOptions / EngineFlags / PipelineBuilder: the unified front door
// to the streamed partial/merge pipeline.

#include "stream/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "cluster/serialize.h"
#include "common/flags.h"
#include "data/generator.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pmkm {
namespace {

GridBucket MakeBucket(int id, size_t n, uint64_t seed) {
  Rng rng(seed);
  GridBucket bucket;
  bucket.cell = GridCellId{id, id};
  bucket.points = GenerateMisrLikeCell(n, &rng);
  return bucket;
}

TEST(EngineFlagsTest, RegistersAndConverts) {
  EngineFlags flags;
  FlagParser parser;
  flags.Register(&parser);
  const char* argv[] = {"prog",          "--k=7",
                        "--restarts=3",  "--memory-kib=64",
                        "--cores=5",     "--failure_policy=skip",
                        "--kernel=scalar"};
  ASSERT_TRUE(parser.Parse(7, const_cast<char**>(argv)).ok());
  auto options = flags.ToOptions();
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_EQ(options->partial.k, 7u);
  EXPECT_EQ(options->partial.restarts, 3u);
  EXPECT_EQ(options->merge.k, 7u);
  EXPECT_EQ(options->resources.memory_bytes_per_operator, 64u << 10);
  EXPECT_EQ(options->resources.cores, 5u);
  EXPECT_EQ(options->exec.failure_policy,
            FailurePolicy::kSkipAndContinue);
  EXPECT_EQ(options->kernel, KernelKind::kScalar);
}

TEST(EngineFlagsTest, RejectsBadValues) {
  {
    EngineFlags flags;
    flags.k = 0;
    EXPECT_TRUE(flags.ToOptions().status().IsInvalidArgument());
  }
  {
    EngineFlags flags;
    flags.failure_policy = "shrug";
    EXPECT_TRUE(flags.ToOptions().status().IsInvalidArgument());
  }
  {
    EngineFlags flags;
    flags.kernel = "mmx";
    EXPECT_TRUE(flags.ToOptions().status().IsInvalidArgument());
  }
}

TEST(PipelineBuilderTest, RunInMemoryIsDeterministic) {
  KMeansConfig partial;
  partial.k = 5;
  partial.restarts = 2;
  partial.seed = 9;
  MergeKMeansConfig merge;
  merge.k = 5;
  ResourceModel resources;
  resources.cores = 2;
  resources.memory_bytes_per_operator = 6 * 8 * 4 * 150;

  PipelineBuilder builder;
  builder.WithPartialKMeans(partial).WithMerge(merge).WithResources(
      resources);
  auto first = builder.RunInMemory({MakeBucket(1, 600, 2)});
  auto second = builder.RunInMemory({MakeBucket(1, 600, 2)});
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  const auto& a = first->cells.at(GridCellId{1, 1});
  const auto& b = second->cells.at(GridCellId{1, 1});
  EXPECT_EQ(a.model.centroids, b.model.centroids);
  EXPECT_EQ(a.model.sse, b.model.sse);
}

TEST(PipelineBuilderTest, ResultIdenticalAcrossKernels) {
  // --kernel is a pure speed knob: the streamed pipeline's output is
  // bitwise identical under every available kernel.
  KMeansConfig partial;
  partial.k = 6;
  partial.restarts = 2;
  MergeKMeansConfig merge;
  merge.k = 6;
  ResourceModel resources;
  resources.cores = 3;

  auto Run = [&](KernelKind kind) {
    return PipelineBuilder()
        .WithPartialKMeans(partial)
        .WithMerge(merge)
        .WithResources(resources)
        .WithKernel(kind)
        .RunInMemory({MakeBucket(2, 1500, 3)});
  };
  auto ref = Run(KernelKind::kScalar);
  ASSERT_TRUE(ref.ok()) << ref.status();
  for (const DistanceKernel* kernel : AvailableKernels()) {
    SCOPED_TRACE(kernel->name());
    auto alt = Run(kernel->kind());
    ASSERT_TRUE(alt.ok()) << alt.status();
    const auto& a = ref->cells.at(GridCellId{2, 2});
    const auto& b = alt->cells.at(GridCellId{2, 2});
    EXPECT_EQ(a.model.centroids, b.model.centroids);
    EXPECT_EQ(a.model.sse, b.model.sse);
  }
}

TEST(PipelineBuilderTest, OperatorStatsNameActiveKernel) {
  auto result = PipelineBuilder()
                    .WithKernel(KernelKind::kScalar)
                    .RunInMemory({MakeBucket(3, 800, 4)});
  ASSERT_TRUE(result.ok()) << result.status();
  bool partial_seen = false, merge_seen = false;
  for (const OperatorStats& stats : result->operator_stats) {
    if (stats.name.rfind("partial-kmeans", 0) == 0) {
      partial_seen = true;
      EXPECT_EQ(stats.kernel, "scalar");
    } else if (stats.name == "merge-kmeans") {
      merge_seen = true;
      EXPECT_EQ(stats.kernel, "scalar");
    }
  }
  EXPECT_TRUE(partial_seen);
  EXPECT_TRUE(merge_seen);
}

TEST(PipelineBuilderTest, WithMetricsAndTraceWireSinks) {
  MetricsRegistry registry;
  TraceRecorder trace;
  auto result = PipelineBuilder()
                    .WithMetrics(&registry)
                    .WithTrace(&trace)
                    .RunInMemory({MakeBucket(4, 500, 5)});
  ASSERT_TRUE(result.ok()) << result.status();
  // The queue gauges only exist when the metrics sink was attached.
  const std::string json = registry.ToJsonString();
  EXPECT_NE(json.find("queue.points.depth"), std::string::npos);
  EXPECT_GT(trace.size(), 0u);
}

TEST(PipelineBuilderTest, ChunkOverrideKeepsQueueRule) {
  // A forced chunk size larger than the memory budget must clamp the
  // queue to the floor of 2 instead of buffering one giant chunk per clone.
  ResourceModel resources;
  resources.cores = 5;
  resources.memory_bytes_per_operator = 6 * 8 * 4 * 100;  // 100-pt chunks
  KMeansConfig partial;
  partial.k = 4;
  partial.restarts = 1;
  MergeKMeansConfig merge;
  merge.k = 4;
  auto result = PipelineBuilder()
                    .WithPartialKMeans(partial)
                    .WithMerge(merge)
                    .WithResources(resources)
                    .WithChunkPoints(2000)
                    .RunInMemory({MakeBucket(5, 4000, 6)});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->plan.chunk_points, 2000u);
  EXPECT_EQ(result->plan.queue_capacity,
            PlanQueueCapacity(result->plan.partial_clones, 2000, 6,
                              resources.memory_bytes_per_operator));
}

// --- Differential tests: the paper's algebraic identities on the engine ---

TEST(EngineDifferentialTest, OneChunkCollapsesToPartialKMeans) {
  // p = 1: the whole cell is one chunk, the merge pool holds at most k
  // centroids and passes them through, so the run is serial k-means of
  // the cell (partition 0 of cell {0, 0} has seed tag 0).
  Rng rng(21);
  const Dataset points = GenerateMisrLikeCell(1500, &rng);
  KMeansConfig partial;
  partial.k = 12;
  partial.restarts = 3;
  partial.seed = 17;
  MergeKMeansConfig merge;
  merge.k = partial.k;
  auto run = PipelineBuilder()
                 .WithPartialKMeans(partial)
                 .WithMerge(merge)
                 .WithChunkPoints(points.size())
                 .RunInMemory({GridBucket{GridCellId{0, 0}, points}});
  ASSERT_TRUE(run.ok()) << run.status();
  auto serial = PartialKMeans(partial).Cluster(points, 0);
  ASSERT_TRUE(serial.ok()) << serial.status();

  const ClusteringModel& got = run->cells.at(GridCellId{0, 0}).model;
  const WeightedDataset& want = serial->centroids;
  ASSERT_EQ(got.k(), want.size());
  // Same set: every serial centroid has its own engine centroid within
  // 1e-12 relative, carrying exactly the same weight.
  std::vector<bool> matched(got.k(), false);
  for (size_t i = 0; i < want.size(); ++i) {
    const std::span<const double> c = want.points().Row(i);
    const auto same = [&](size_t j) {
      if (matched[j] || got.weights[j] != want.weight(i)) return false;
      for (size_t d = 0; d < c.size(); ++d) {
        const double diff = std::abs(got.centroids(j, d) - c[d]);
        if (diff > 1e-12 * std::abs(c[d])) return false;
      }
      return true;
    };
    size_t j = 0;
    while (j < got.k() && !same(j)) ++j;
    ASSERT_LT(j, got.k()) << "serial centroid " << i << " missing";
    matched[j] = true;
  }
}

TEST(EngineDifferentialTest, CellOrderDoesNotChangeModels) {
  // Permutation invariance: the cells' order changes only which clone
  // sees what when, never a model byte.
  std::vector<GridBucket> cells;
  for (int id = 0; id < 5; ++id) {
    cells.push_back(MakeBucket(id, 400 + 150 * id, 30 + id));
  }
  std::vector<GridBucket> reversed(cells.rbegin(), cells.rend());
  KMeansConfig partial;
  partial.k = 6;
  partial.restarts = 2;
  MergeKMeansConfig merge;
  merge.k = 6;
  ResourceModel resources;
  resources.cores = 3;
  PipelineBuilder builder;
  builder.WithPartialKMeans(partial)
      .WithMerge(merge)
      .WithResources(resources)
      .WithChunkPoints(256);
  auto forward = builder.RunInMemory(std::move(cells));
  auto backward = builder.RunInMemory(std::move(reversed));
  ASSERT_TRUE(forward.ok()) << forward.status();
  ASSERT_TRUE(backward.ok()) << backward.status();
  ASSERT_EQ(forward->cells.size(), 5u);
  ASSERT_EQ(backward->cells.size(), 5u);

  const auto dir = std::filesystem::temp_directory_path() /
                   ("pmkm_engine_perm_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto model_bytes = [&dir](const ClusteringModel& model) {
    const std::string path = (dir / "model.pmkm").string();
    EXPECT_TRUE(SaveModel(path, model).ok());
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  for (const auto& [cell, clustering] : forward->cells) {
    SCOPED_TRACE(cell.ToString());
    ASSERT_EQ(backward->cells.count(cell), 1u);
    EXPECT_EQ(model_bytes(clustering.model),
              model_bytes(backward->cells.at(cell).model));
  }
  std::filesystem::remove_all(dir);
}

TEST(PipelineBuilderTest, ExplainNamesKernel) {
  // Explain goes through bucket files; write one.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("pmkm_engine_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const GridBucket bucket = MakeBucket(6, 300, 7);
  const std::string path = (dir / "cell.pmkb").string();
  ASSERT_TRUE(WriteGridBucket(path, bucket).ok());
  auto text = PipelineBuilder()
                  .WithKernel(KernelKind::kScalar)
                  .Explain({path});
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("kernel=scalar"), std::string::npos);
}

}  // namespace
}  // namespace pmkm
