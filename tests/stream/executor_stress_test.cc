// Stress and failure-injection tests for the stream executor: many cells,
// many clones, tiny queues (maximum back-pressure), and operators that
// fail at arbitrary points of the pipeline lifecycle.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <set>
#include <string>
#include <thread>

#include "common/fault.h"
#include "data/generator.h"
#include "stream/engine.h"
#include "stream/ops.h"
#include "stream/plan.h"
#include "tests/bucket_files.h"

namespace pmkm {
namespace {

KMeansConfig PartialConfig() {
  KMeansConfig config;
  config.k = 4;
  config.restarts = 1;
  return config;
}

MergeKMeansConfig MergeConfig() {
  MergeKMeansConfig config;
  config.k = 4;
  return config;
}

std::vector<GridBucket> MakeCells(size_t count, size_t points,
                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<GridBucket> cells;
  for (size_t c = 0; c < count; ++c) {
    GridBucket bucket;
    bucket.cell = GridCellId{static_cast<int32_t>(c), 0};
    bucket.points = GenerateMisrLikeCell(points, &rng);
    cells.push_back(std::move(bucket));
  }
  return cells;
}

// A scan over `cells`, written as bucket files into `files`, in chunks of
// `chunk_points`.
std::unique_ptr<ScanOperator> ScanOf(
    BucketFiles* files, const std::vector<GridBucket>& cells,
    size_t chunk_points, std::shared_ptr<PointChunkQueue> out,
    std::shared_ptr<ChunkBufferPool> buffers) {
  return std::make_unique<ScanOperator>(files->Write(cells), chunk_points,
                                        cells[0].points.dim(),
                                        std::move(out), std::move(buffers));
}

TEST(ExecutorStressTest, ManyCellsManyClonesTinyQueues) {
  // 12 cells × 6 chunks over 5 clones through capacity-1 queues: maximum
  // back-pressure and interleaving. Everything must arrive exactly once.
  auto points = std::make_shared<PointChunkQueue>(1);
  auto buffers = std::make_shared<ChunkBufferPool>(7, 6, 50);
  auto centroids = std::make_shared<CentroidQueue>(1);
  BucketFiles files;
  Executor executor;
  executor.Add(ScanOf(&files, MakeCells(12, 300, 1), 50, points, buffers));
  for (int c = 0; c < 5; ++c) {
    executor.Add(std::make_unique<PartialKMeansOperator>(
        PartialConfig(), points, buffers, centroids,
        "clone#" + std::to_string(c)));
  }
  auto merge =
      std::make_unique<MergeKMeansOperator>(MergeConfig(), centroids);
  auto* merge_raw = merge.get();
  executor.Add(std::move(merge));
  ASSERT_TRUE(executor.Run().ok());
  ASSERT_EQ(merge_raw->results().size(), 12u);
  for (const auto& [id, cell] : merge_raw->results()) {
    EXPECT_EQ(cell.input_points, 300u);
    EXPECT_EQ(cell.pooled_centroids, 24u);  // 6 chunks × 4
  }
}

TEST(ExecutorStressTest, RepeatedRunsAreIdenticalUnderContention) {
  // The determinism guarantee under the most adversarial scheduling we can
  // provoke in-process: tiny queues, more clones than cores.
  Dataset first_centroids(1);
  double first_sse = -1.0;
  BucketFiles files;
  for (int round = 0; round < 3; ++round) {
    auto points = std::make_shared<PointChunkQueue>(1);
    auto buffers = std::make_shared<ChunkBufferPool>(8, 6, 150);
    auto centroids = std::make_shared<CentroidQueue>(1);
    Executor executor;
    executor.Add(
        ScanOf(&files, MakeCells(1, 1200, 7), 150, points, buffers));
    for (int c = 0; c < 6; ++c) {
      executor.Add(std::make_unique<PartialKMeansOperator>(
          PartialConfig(), points, buffers, centroids,
          "clone#" + std::to_string(c)));
    }
    auto merge =
        std::make_unique<MergeKMeansOperator>(MergeConfig(), centroids);
    auto* merge_raw = merge.get();
    executor.Add(std::move(merge));
    ASSERT_TRUE(executor.Run().ok());
    const auto& cell = merge_raw->results().begin()->second;
    if (round == 0) {
      first_centroids = cell.model.centroids;
      first_sse = cell.model.sse;
    } else {
      EXPECT_EQ(cell.model.centroids, first_centroids);
      EXPECT_EQ(cell.model.sse, first_sse);
    }
  }
}

// An operator that consumes chunks and fails after a fixed number.
class FailingOperator : public Operator {
 public:
  FailingOperator(std::shared_ptr<PointChunkQueue> in,
                  std::shared_ptr<CentroidQueue> out, int fail_after)
      : Operator("failing"),
        in_(std::move(in)),
        out_(std::move(out)),
        fail_after_(fail_after) {
    out_->AddProducer();
  }

  Status Run() override {
    struct Closer {
      CentroidQueue* q;
      ~Closer() { q->CloseProducer(); }
    } closer{out_.get()};
    int seen = 0;
    while (auto chunk = in_->Pop()) {
      if (++seen > fail_after_) {
        return Status::Internal("injected failure");
      }
    }
    return Status::OK();
  }

  void Abort() override {
    in_->Cancel();
    out_->Cancel();
  }

 private:
  std::shared_ptr<PointChunkQueue> in_;
  std::shared_ptr<CentroidQueue> out_;
  int fail_after_;
};

TEST(ExecutorStressTest, MidPipelineFailureUnblocksEveryone) {
  BucketFiles files;
  for (int fail_after : {0, 1, 3}) {
    auto points = std::make_shared<PointChunkQueue>(1);
    auto centroids = std::make_shared<CentroidQueue>(1);
    Executor executor;
    executor.Add(ScanOf(&files, MakeCells(4, 400, 11), 40, points,
                        std::make_shared<ChunkBufferPool>(3, 6, 40)));
    executor.Add(std::make_unique<FailingOperator>(points, centroids,
                                                   fail_after));
    executor.Add(
        std::make_unique<MergeKMeansOperator>(MergeConfig(), centroids));
    const Status st = executor.Run();  // must terminate, not hang
    ASSERT_FALSE(st.ok()) << "fail_after=" << fail_after;
    EXPECT_TRUE(st.IsInternal() || st.IsCancelled()) << st;
  }
}

// A source that fails and closes its output only in Finish(), where it
// then waits until the executor aborts the pipeline. If the executor
// called Finish before recording the failure, the sink below would see a
// clean end-of-stream and its error would always be recorded first.
class FailingSource : public Operator {
 public:
  explicit FailingSource(std::shared_ptr<PointChunkQueue> out)
      : Operator("failing-source"), out_(std::move(out)) {
    out_->AddProducer();
  }

  Status Run() override { return Status::IOError("source read failed"); }

  void Finish() override {
    out_->CloseProducer();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!aborted_.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  }

  void Abort() override {
    aborted_.store(true);
    out_->Cancel();
  }

 private:
  std::shared_ptr<PointChunkQueue> out_;
  std::atomic<bool> aborted_{false};
};

// A sink that treats the end of its input as missing data.
class EndOfStreamSink : public Operator {
 public:
  explicit EndOfStreamSink(std::shared_ptr<PointChunkQueue> in)
      : Operator("eos-sink"), in_(std::move(in)) {}

  Status Run() override {
    while (in_->Pop().has_value()) {
    }
    return Status::Internal("input ended with missing data");
  }

  void Abort() override { in_->Cancel(); }

 private:
  std::shared_ptr<PointChunkQueue> in_;
};

TEST(ExecutorStressTest, FailFastReportsTheFailingOperatorNotItsConsumer) {
  auto points = std::make_shared<PointChunkQueue>(2);
  Executor executor;
  executor.Add(std::make_unique<FailingSource>(points));
  executor.Add(std::make_unique<EndOfStreamSink>(points));
  const Status st = executor.Run();
  EXPECT_TRUE(st.IsIOError()) << st;
}

TEST(ExecutorStressTest, EmptyPipelineRunsClean) {
  Executor executor;
  EXPECT_TRUE(executor.Run().ok());
  EXPECT_EQ(executor.num_operators(), 0u);
}

TEST(ExecutorStressTest, SeededFaultSweepNeverProducesWrongResults) {
  // 100 seeded runs with both read faults and partial-compute faults armed.
  // The contract under kSkipAndContinue: the run always terminates OK, and
  // every cell is either clustered from ALL of its points or explicitly
  // quarantined — never silently wrong, never hung.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "pmkm_fault_sweep";
  fs::remove_all(dir);
  fs::create_directories(dir);

  constexpr size_t kCells = 6;
  constexpr size_t kPoints = 180;
  std::vector<std::string> paths;
  {
    Rng rng(99);
    for (size_t c = 0; c < kCells; ++c) {
      GridBucket bucket;
      bucket.cell = GridCellId{static_cast<int32_t>(c), 0};
      bucket.points = Dataset(2);
      for (size_t p = 0; p < kPoints; ++p) {
        bucket.points.Append(std::vector<double>{
            rng.Normal(c * 8.0, 1.0), rng.Normal(0.0, 1.0)});
      }
      const std::string path =
          (dir / (bucket.cell.ToString() + ".pmkb")).string();
      ASSERT_TRUE(WriteGridBucket(path, bucket).ok());
      paths.push_back(path);
    }
  }

  ResourceModel resources;
  resources.memory_bytes_per_operator = 1024;  // chunk = 16 pts, 12 parts
  resources.cores = 3;                         // 3 partial clones

  for (uint64_t seed = 1; seed <= 100; ++seed) {
    FaultRegistry::Global().Reset();
    ASSERT_TRUE(FaultRegistry::Global()
                    .ArmFromString(
                        "io.read:p=0.05,seed=" + std::to_string(seed) +
                        ";op.partial:p=0.05,code=deadline,seed=" +
                        std::to_string(seed + 1000))
                    .ok());

    StreamExecOptions exec;
    exec.failure_policy = FailurePolicy::kSkipAndContinue;
    exec.io_retry.max_attempts = 3;
    exec.io_retry.initial_backoff_ms = 0;

    auto run = PipelineBuilder()
                   .WithPartialKMeans(PartialConfig())
                   .WithMerge(MergeConfig())
                   .WithResources(resources)
                   .WithExecution(exec)
                   .Run(paths);
    ASSERT_TRUE(run.ok()) << "seed=" << seed << ": " << run.status();

    std::set<GridCellId> quarantined;
    for (const auto& q : run->report.quarantined) {
      if (q.cell_known) {
        EXPECT_TRUE(quarantined.insert(q.cell).second)
            << "seed=" << seed << ": cell " << q.cell.ToString()
            << " quarantined twice";
      }
    }
    // Clustered ∩ quarantined = ∅, and clustered cells saw every point.
    for (const auto& [cell, clustering] : run->cells) {
      EXPECT_EQ(quarantined.count(cell), 0u)
          << "seed=" << seed << ": cell " << cell.ToString()
          << " both clustered and quarantined";
      EXPECT_EQ(clustering.input_points, kPoints)
          << "seed=" << seed << ": cell " << cell.ToString()
          << " clustered from partial input";
    }
    // Every cell is accounted for exactly once.
    EXPECT_EQ(run->cells.size() + run->report.quarantined.size(), kCells)
        << "seed=" << seed << ": " << run->report.Summary();
    EXPECT_EQ(run->report.degraded, !run->report.quarantined.empty())
        << "seed=" << seed;
  }
  FaultRegistry::Global().Reset();
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(ExecutorStressTest, MergeAloneSeesEndOfStream) {
  // A merge with a producer-less queue must terminate immediately: zero
  // producers means end-of-stream by definition.
  auto centroids = std::make_shared<CentroidQueue>(2);
  Executor executor;
  auto merge =
      std::make_unique<MergeKMeansOperator>(MergeConfig(), centroids);
  auto* merge_raw = merge.get();
  executor.Add(std::move(merge));
  ASSERT_TRUE(executor.Run().ok());
  EXPECT_TRUE(merge_raw->results().empty());
}

}  // namespace
}  // namespace pmkm
