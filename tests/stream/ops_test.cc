#include "stream/ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>

#include "cluster/metrics.h"
#include "data/generator.h"
#include "data/slicing.h"

namespace pmkm {
namespace {

// D of GenerateMisrLikeCell's points, the D every scan here is planned for.
constexpr size_t kMisrDim = 6;

class OpsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pmkm_ops_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string WriteCell(const std::string& name, GridCellId id, size_t n,
                        uint64_t seed) {
    Rng rng(seed);
    GridBucket bucket;
    bucket.cell = id;
    bucket.points = GenerateMisrLikeCell(n, &rng);
    const std::string path = (dir_ / name).string();
    PMKM_CHECK_OK(WriteGridBucket(path, bucket));
    return path;
  }

  std::filesystem::path dir_;
  // Shared by every scan and partial clone of one test.
  std::shared_ptr<ChunkBufferPool> buffers_ =
      std::make_shared<ChunkBufferPool>(4, kMisrDim, 100);
};

KMeansConfig PartialConfig(size_t k = 8) {
  KMeansConfig config;
  config.k = k;
  config.restarts = 2;
  return config;
}

MergeKMeansConfig MergeConfig(size_t k = 8) {
  MergeKMeansConfig config;
  config.k = k;
  return config;
}

TEST_F(OpsTest, ScanEmitsAllChunksWithMetadata) {
  const std::string path = WriteCell("a.pmkb", {3, 4}, 100, 1);
  auto out = std::make_shared<PointChunkQueue>(64);
  ScanOperator scan({path}, 30, kMisrDim, out, buffers_);
  ASSERT_TRUE(scan.Run().ok());
  EXPECT_EQ(out->total_pushed(), 4u);  // ceil(100/30)

  size_t total = 0;
  uint32_t next_id = 0;
  while (auto chunk = out->Pop()) {
    EXPECT_EQ(chunk->cell, (GridCellId{3, 4}));
    EXPECT_EQ(chunk->total_partitions, 4u);
    EXPECT_EQ(chunk->partition_id, next_id++);
    total += chunk->points.size();
  }
  EXPECT_EQ(total, 100u);
}

TEST_F(OpsTest, ScanMultipleFiles) {
  const std::string p1 = WriteCell("a.pmkb", {0, 0}, 50, 1);
  const std::string p2 = WriteCell("b.pmkb", {1, 1}, 70, 2);
  auto out = std::make_shared<PointChunkQueue>(64);
  ScanOperator scan({p1, p2}, 25, kMisrDim, out, buffers_);
  ASSERT_TRUE(scan.Run().ok());
  EXPECT_EQ(out->total_pushed(), 5u);  // 2 + 3
}

TEST(ChunkBufferPoolTest, PreallocatesAndRecyclesUpToCapacity) {
  ChunkBufferPool pool(2, 3, 10);
  Dataset a = pool.Take();
  Dataset b = pool.Take();
  const std::set<const double*> made{a.data(), b.data()};
  EXPECT_EQ(made.size(), 2u);
  for (const Dataset* buffer : {&a, &b}) {
    EXPECT_EQ(buffer->dim(), 3u);
    EXPECT_GE(buffer->values().capacity(), 30u);
  }
  EXPECT_EQ(pool.Take().values().capacity(), 0u);  // none free
  Dataset extra(3);
  extra.Reshape(3, 10);
  pool.Give(std::move(a));
  pool.Give(std::move(b));
  pool.Give(std::move(extra));  // the pool is full: freed
  EXPECT_EQ(made.count(pool.Take().data()), 1u);
  EXPECT_EQ(made.count(pool.Take().data()), 1u);
  EXPECT_EQ(pool.Take().values().capacity(), 0u);
}

TEST_F(OpsTest, ScanFailsOnMissingFile) {
  auto out = std::make_shared<PointChunkQueue>(4);
  ScanOperator scan({(dir_ / "nope.pmkb").string()}, 10, kMisrDim, out,
                    buffers_);
  EXPECT_TRUE(scan.Run().IsIOError());
  // The failed scan keeps its producer open until Finish(), which the
  // executor calls after recording the failure; then the queue is closed.
  EXPECT_EQ(out->size(), 0u);
  scan.Finish();
  EXPECT_EQ(out->Pop(), std::nullopt);
}

TEST_F(OpsTest, SingleCellPipelineMatchesDriver) {
  const std::string path = WriteCell("cell.pmkb", {10, 20}, 500, 3);
  auto points = std::make_shared<PointChunkQueue>(8);
  auto centroids = std::make_shared<CentroidQueue>(8);

  Executor executor;
  executor.Add(std::make_unique<ScanOperator>(
      std::vector<std::string>{path}, 100, kMisrDim, points, buffers_));
  executor.Add(std::make_unique<PartialKMeansOperator>(
      PartialConfig(), points, buffers_, centroids));
  auto merge = std::make_unique<MergeKMeansOperator>(MergeConfig(),
                                                     centroids);
  auto* merge_raw = merge.get();
  executor.Add(std::move(merge));

  ASSERT_TRUE(executor.Run().ok());
  ASSERT_EQ(merge_raw->results().size(), 1u);
  const CellClustering& cell =
      merge_raw->results().at(GridCellId{10, 20});
  EXPECT_EQ(cell.model.k(), 8u);
  EXPECT_EQ(cell.input_points, 500u);
  EXPECT_EQ(cell.pooled_centroids, 40u);  // 5 chunks × 8
  double mass = 0.0;
  for (double w : cell.model.weights) mass += w;
  EXPECT_NEAR(mass, 500.0, 1e-6);
}

TEST_F(OpsTest, ClonedPartialOperatorsProduceCompleteResult) {
  const std::string path = WriteCell("cell.pmkb", {0, 0}, 1200, 4);
  auto points = std::make_shared<PointChunkQueue>(4);
  auto centroids = std::make_shared<CentroidQueue>(4);

  Executor executor;
  executor.Add(std::make_unique<ScanOperator>(
      std::vector<std::string>{path}, 150, kMisrDim, points, buffers_));
  for (int c = 0; c < 3; ++c) {
    executor.Add(std::make_unique<PartialKMeansOperator>(
        PartialConfig(), points, buffers_, centroids,
        "partial#" + std::to_string(c)));
  }
  auto merge = std::make_unique<MergeKMeansOperator>(MergeConfig(),
                                                     centroids);
  auto* merge_raw = merge.get();
  executor.Add(std::move(merge));

  ASSERT_TRUE(executor.Run().ok());
  const CellClustering& cell = merge_raw->results().at(GridCellId{0, 0});
  EXPECT_EQ(cell.input_points, 1200u);
  EXPECT_EQ(cell.pooled_centroids, 64u);  // 8 chunks × 8
}

TEST_F(OpsTest, MultipleCellsEachGetMerged) {
  std::vector<std::string> paths;
  for (int i = 0; i < 4; ++i) {
    paths.push_back(WriteCell("c" + std::to_string(i) + ".pmkb",
                              {i, -i}, 200 + 50 * i, 10 + i));
  }
  auto points = std::make_shared<PointChunkQueue>(8);
  auto centroids = std::make_shared<CentroidQueue>(8);
  Executor executor;
  executor.Add(
      std::make_unique<ScanOperator>(paths, 64, kMisrDim, points, buffers_));
  executor.Add(std::make_unique<PartialKMeansOperator>(
      PartialConfig(4), points, buffers_, centroids));
  auto merge = std::make_unique<MergeKMeansOperator>(MergeConfig(4),
                                                     centroids);
  auto* merge_raw = merge.get();
  executor.Add(std::move(merge));
  ASSERT_TRUE(executor.Run().ok());
  ASSERT_EQ(merge_raw->results().size(), 4u);
  for (int i = 0; i < 4; ++i) {
    const auto& cell = merge_raw->results().at(GridCellId{i, -i});
    EXPECT_EQ(cell.input_points, 200u + 50 * i);
  }
}

TEST_F(OpsTest, MemoryScanMatchesFileScan) {
  // The scan cuts a bucket file into the same chunks as slicing the cell
  // in memory: consecutive runs of chunk_points points, in file order.
  Rng rng(5);
  GridBucket bucket;
  bucket.cell = GridCellId{7, 8};
  bucket.points = GenerateMisrLikeCell(300, &rng);
  const std::string path = (dir_ / "same.pmkb").string();
  ASSERT_TRUE(WriteGridBucket(path, bucket).ok());
  auto queue = std::make_shared<PointChunkQueue>(64);
  ScanOperator file({path}, 80, kMisrDim, queue, buffers_);
  ASSERT_TRUE(file.Run().ok());

  uint32_t id = 0;
  while (auto chunk = queue->Pop()) {
    const size_t begin = 80 * id;
    EXPECT_EQ(chunk->points,
              SlicePoints(bucket.points, begin, std::min<size_t>(300, begin + 80)));
    EXPECT_EQ(chunk->partition_id, id);
    EXPECT_EQ(chunk->total_partitions, 4u);
    ++id;
  }
  EXPECT_EQ(id, 4u);
}

TEST_F(OpsTest, CorruptBucketMidStreamAbortsPipeline) {
  // Failure injection: second of three bucket files is corrupted. The
  // pipeline must fail with an IO error and not hang any operator.
  std::vector<std::string> paths;
  paths.push_back(WriteCell("ok1.pmkb", {0, 0}, 300, 20));
  paths.push_back(WriteCell("bad.pmkb", {1, 1}, 300, 21));
  paths.push_back(WriteCell("ok2.pmkb", {2, 2}, 300, 22));
  {
    std::fstream f(paths[1],
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(48, std::ios::beg);
    f.put('\x5a');
  }
  auto points = std::make_shared<PointChunkQueue>(2);
  auto centroids = std::make_shared<CentroidQueue>(2);
  Executor executor;
  executor.Add(
      std::make_unique<ScanOperator>(paths, 100, kMisrDim, points,
                                     buffers_));
  executor.Add(std::make_unique<PartialKMeansOperator>(
      PartialConfig(4), points, buffers_, centroids));
  executor.Add(
      std::make_unique<MergeKMeansOperator>(MergeConfig(4), centroids));
  const Status st = executor.Run();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError() || st.IsCancelled()) << st;
}

TEST_F(OpsTest, ExecutorPropagatesOperatorFailure) {
  // Scan on a missing file must abort the whole pipeline: the merge
  // operator unblocks and the executor reports the IO error.
  auto points = std::make_shared<PointChunkQueue>(2);
  auto centroids = std::make_shared<CentroidQueue>(2);
  Executor executor;
  executor.Add(std::make_unique<ScanOperator>(
      std::vector<std::string>{(dir_ / "ghost.pmkb").string()}, 10,
      kMisrDim, points, buffers_));
  executor.Add(std::make_unique<PartialKMeansOperator>(
      PartialConfig(), points, buffers_, centroids));
  executor.Add(
      std::make_unique<MergeKMeansOperator>(MergeConfig(), centroids));
  const Status st = executor.Run();
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st;
}

}  // namespace
}  // namespace pmkm
