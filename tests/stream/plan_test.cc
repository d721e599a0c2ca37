#include "stream/plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "cluster/metrics.h"
#include "data/generator.h"
#include "stream/engine.h"

namespace pmkm {
namespace {

TEST(ResourceModelTest, EffectiveCoresAutodetectsPositive) {
  ResourceModel r;
  EXPECT_GE(r.EffectiveCores(), 1u);
  r.cores = 3;
  EXPECT_EQ(r.EffectiveCores(), 3u);
}

TEST(PlanTest, PartitionSizeScalesWithMemory) {
  ResourceModel small;
  small.memory_bytes_per_operator = 1 << 16;  // 64 KiB
  ResourceModel large;
  large.memory_bytes_per_operator = 1 << 24;  // 16 MiB
  const PhysicalPlan ps = PlanPartialMerge(6, 100000, small);
  const PhysicalPlan pl = PlanPartialMerge(6, 100000, large);
  EXPECT_LT(ps.chunk_points, pl.chunk_points);
  // 64 KiB / (6·8·4) = 341 points.
  EXPECT_EQ(ps.chunk_points, (1u << 16) / (6 * 8 * 4));
}

TEST(PlanTest, CloneCountBoundedByChunks) {
  ResourceModel r;
  r.cores = 16;
  r.memory_bytes_per_operator = 1 << 30;  // one huge chunk
  const PhysicalPlan plan = PlanPartialMerge(6, 1000, r);
  EXPECT_EQ(plan.partial_clones, 1u);  // only one chunk exists
}

TEST(PlanTest, ClonesUseAvailableCores) {
  ResourceModel r;
  r.cores = 8;
  r.memory_bytes_per_operator = 1 << 14;  // many small chunks
  const PhysicalPlan plan = PlanPartialMerge(6, 100000, r);
  EXPECT_EQ(plan.partial_clones, 8u);  // one clone per core
  EXPECT_EQ(plan.queue_capacity, plan.partial_clones);
}

TEST(PlanTest, ServeShapedJobUsesBothBudgetedCores) {
  // A serve job at a two-core budget over 10,000-point cells with a
  // 512 KiB operator budget: chunk 2,730, four chunks per cell, so both
  // cores run a partial clone and the exchange buffers one chunk each.
  ResourceModel r;
  r.cores = 2;
  r.memory_bytes_per_operator = 512 << 10;
  const PhysicalPlan plan = PlanPartialMerge(6, 10000, r);
  EXPECT_EQ(plan.chunk_points, 2730u);
  EXPECT_EQ(plan.partial_clones, 2u);
  EXPECT_EQ(plan.queue_capacity, 2u);
}

TEST(PlanTest, OneCorePlansOneClone) {
  ResourceModel r;
  r.cores = 1;
  r.memory_bytes_per_operator = 512 << 10;
  const PhysicalPlan plan = PlanPartialMerge(6, 75000, r);
  EXPECT_EQ(plan.partial_clones, 1u);
  EXPECT_EQ(plan.queue_capacity, 2u);  // the floor
}

TEST(PlanTest, QueueCapacityRule) {
  // cap = max(2, min(clones, clones · memory / chunk_bytes)).
  // Planner-sized chunks occupy a quarter of the budget (factor-4 working
  // set), so the clones term binds: one buffered chunk per clone...
  EXPECT_EQ(PlanQueueCapacity(4, 100, 6, 100 * 6 * 8 * 4), 4u);
  // ...as it does for a chunk as large as the whole budget...
  EXPECT_EQ(PlanQueueCapacity(4, 400, 6, 400 * 6 * 8), 4u);
  // ...and chunks larger than the budget clamp to the floor of 2.
  EXPECT_EQ(PlanQueueCapacity(4, 4000, 6, 400 * 6 * 8), 2u);
  EXPECT_EQ(PlanQueueCapacity(1, 1, 1, 0), 2u);  // floor holds everywhere
}

TEST(PlanTest, PlannerQueueCapacityFollowsRule) {
  for (size_t cores : {2u, 4u, 9u}) {
    ResourceModel r;
    r.cores = cores;
    r.memory_bytes_per_operator = 1 << 16;
    const PhysicalPlan plan = PlanPartialMerge(6, 1000000, r);
    EXPECT_EQ(plan.queue_capacity,
              PlanQueueCapacity(plan.partial_clones, plan.chunk_points, 6,
                                r.memory_bytes_per_operator));
    // Planner-derived chunks always fit the budget 4×, so the capacity
    // is one buffered chunk per clone.
    EXPECT_EQ(plan.partial_clones, cores);
    EXPECT_EQ(plan.queue_capacity,
              std::max<size_t>(2, plan.partial_clones));
  }
}

TEST(PlanTest, MinimumOnePointPartition) {
  ResourceModel r;
  r.memory_bytes_per_operator = 1;  // absurdly small budget
  const PhysicalPlan plan = PlanPartialMerge(6, 100, r);
  EXPECT_GE(plan.chunk_points, 1u);
}

class PlanRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pmkm_plan_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(PlanRunTest, EndToEndOverFiles) {
  Rng rng(1);
  std::vector<std::string> paths;
  for (int i = 0; i < 3; ++i) {
    GridBucket bucket;
    bucket.cell = GridCellId{i, i};
    bucket.points = GenerateMisrLikeCell(400, &rng);
    const std::string path =
        (dir_ / (bucket.cell.ToString() + ".pmkb")).string();
    ASSERT_TRUE(WriteGridBucket(path, bucket).ok());
    paths.push_back(path);
  }
  KMeansConfig partial;
  partial.k = 6;
  partial.restarts = 2;
  MergeKMeansConfig merge;
  merge.k = 6;
  ResourceModel resources;
  resources.cores = 4;
  resources.memory_bytes_per_operator = 6 * 8 * 4 * 100;  // 100-pt chunks

  auto result = PipelineBuilder()
                    .WithPartialKMeans(partial)
                    .WithMerge(merge)
                    .WithResources(resources)
                    .Run(paths);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->plan.chunk_points, 100u);
  EXPECT_EQ(result->cells.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    const auto& cell = result->cells.at(GridCellId{i, i});
    EXPECT_EQ(cell.input_points, 400u);
    EXPECT_EQ(cell.model.k(), 6u);
  }
  EXPECT_GT(result->wall_seconds, 0.0);
}

TEST_F(PlanRunTest, EmptyPathListRejected) {
  KMeansConfig partial;
  MergeKMeansConfig merge;
  EXPECT_TRUE(PipelineBuilder()
                  .WithPartialKMeans(partial)
                  .WithMerge(merge)
                  .Run({})
                  .status()
                  .IsInvalidArgument());
}

TEST_F(PlanRunTest, InMemoryVariantMatchesFileVariant) {
  Rng rng(2);
  GridBucket bucket;
  bucket.cell = GridCellId{5, 5};
  bucket.points = GenerateMisrLikeCell(600, &rng);
  const std::string path = (dir_ / "x.pmkb").string();
  ASSERT_TRUE(WriteGridBucket(path, bucket).ok());

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
  auto from_file = builder.Run({path});
  auto in_memory = builder.WithChunkPoints(150).RunInMemory({bucket});
  ASSERT_TRUE(from_file.ok() && in_memory.ok());
  const auto& a = from_file->cells.at(bucket.cell);
  const auto& b = in_memory->cells.at(bucket.cell);
  EXPECT_EQ(a.model.centroids, b.model.centroids);
  EXPECT_EQ(a.model.sse, b.model.sse);
}

TEST_F(PlanRunTest, InMemoryEmptyCellsRejected) {
  KMeansConfig partial;
  MergeKMeansConfig merge;
  EXPECT_TRUE(PipelineBuilder()
                  .WithPartialKMeans(partial)
                  .WithMerge(merge)
                  .RunInMemory({})
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace pmkm
