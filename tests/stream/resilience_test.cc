// End-to-end resilience of the streamed partial/merge pipeline: injected
// read faults, a permanently corrupt bucket, executor-level operator
// restarts, and the stall watchdog. Every scenario is seeded and exact.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "stream/engine.h"
#include "stream/plan.h"

namespace pmkm {
namespace {

namespace fs = std::filesystem;

constexpr size_t kNumCells = 50;
constexpr size_t kPointsPerCell = 40;
constexpr int kCorruptCellLat = 25;  // cell_25_0 gets truncated on disk

class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultRegistry::Global().Reset();
    dir_ = fs::temp_directory_path() /
           ("pmkm_resilience_" + std::string(::testing::UnitTest::GetInstance()
                                                 ->current_test_info()
                                                 ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    FaultRegistry::Global().Reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  // Writes kNumCells healthy buckets (2-d Gaussian blobs) and returns their
  // paths in scan order.
  std::vector<std::string> WriteBuckets() {
    std::vector<std::string> paths;
    Rng rng(42);
    for (size_t i = 0; i < kNumCells; ++i) {
      GridBucket bucket;
      bucket.cell = GridCellId{static_cast<int32_t>(i), 0};
      bucket.points = Dataset(2);
      for (size_t p = 0; p < kPointsPerCell; ++p) {
        bucket.points.Append(std::vector<double>{
            static_cast<double>(i) * 10.0 + rng.Normal(0.0, 1.0),
            rng.Normal(0.0, 1.0)});
      }
      const std::string path =
          (dir_ / (bucket.cell.ToString() + ".pmkb")).string();
      EXPECT_TRUE(WriteGridBucket(path, bucket).ok());
      paths.push_back(path);
    }
    return paths;
  }

  // Truncates the bucket mid-payload: reads fail partway through the
  // bucket, after the header (so the scan knows which cell to quarantine).
  static void CorruptBucket(const std::string& path) {
    std::error_code ec;
    fs::resize_file(path, 32 + 10 * 2 * sizeof(double), ec);
    ASSERT_FALSE(ec) << ec.message();
  }

  // Replaces one coordinate with NaN and re-seals the checksum: the file
  // is intact, only its data is unusable.
  static void PoisonBucket(const std::string& path, size_t point) {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    const size_t payload = bytes.size() - 32 - sizeof(uint64_t);
    const double nan = std::nan("");
    std::memcpy(&bytes[32 + point * 2 * sizeof(double)], &nan, sizeof(nan));
    const uint64_t hash =
        internal::Fnv1a64(&bytes[32], payload, internal::kFnvOffset);
    std::memcpy(&bytes[32 + payload], &hash, sizeof(hash));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // Small memory budget => chunk_points 16 => 3 partitions per 40-point
  // cell, exercising partition resume and the merge completeness check.
  static ResourceModel SmallResources() {
    ResourceModel resources;
    resources.memory_bytes_per_operator = 1024;
    resources.cores = 2;  // 2 partial clones
    return resources;
  }

  static KMeansConfig PartialConfig() {
    KMeansConfig config;
    config.k = 2;
    config.restarts = 2;
    return config;
  }

  static MergeKMeansConfig MergeConfig() {
    MergeKMeansConfig config;
    config.k = 2;
    config.restarts = 2;
    return config;
  }

  // The standard small-resource pipeline over on-disk buckets.
  static Result<StreamRunResult> RunStream(
      const std::vector<std::string>& paths,
      const StreamExecOptions& exec) {
    return PipelineBuilder()
        .WithPartialKMeans(PartialConfig())
        .WithMerge(MergeConfig())
        .WithResources(SmallResources())
        .WithExecution(exec)
        .Run(paths);
  }

  fs::path dir_;
};

TEST_F(ResilienceTest, SkipAndContinueQuarantinesCorruptBucketUnderFaults) {
  std::vector<std::string> paths = WriteBuckets();
  CorruptBucket(paths[kCorruptCellLat]);
  ASSERT_TRUE(FaultRegistry::Global()
                  .ArmFromString("io.read:p=0.05,seed=7")
                  .ok());

  StreamExecOptions exec;
  exec.failure_policy = FailurePolicy::kSkipAndContinue;
  exec.io_retry.max_attempts = 8;
  exec.io_retry.initial_backoff_ms = 0;  // retry without sleeping

  auto run = RunStream(paths, exec);
  ASSERT_TRUE(run.ok()) << run.status();

  // All healthy cells clustered; exactly the corrupt one quarantined.
  EXPECT_EQ(run->cells.size(), kNumCells - 1);
  ASSERT_EQ(run->report.quarantined.size(), 1u) << run->report.Summary();
  const QuarantinedCellReport& q = run->report.quarantined[0];
  EXPECT_TRUE(q.cell_known);
  EXPECT_EQ(q.cell, (GridCellId{kCorruptCellLat, 0}));
  EXPECT_NE(q.reason.find("truncated bucket payload"), std::string::npos)
      << q.reason;
  EXPECT_EQ(run->cells.count(GridCellId{kCorruptCellLat, 0}), 0u);
  for (const auto& [cell, clustering] : run->cells) {
    EXPECT_EQ(clustering.input_points, kPointsPerCell);
  }
  // 5% faults over ~250 read hits: retries must have been absorbed.
  EXPECT_GT(run->report.io_retries, 0u);
  EXPECT_TRUE(run->report.degraded);
  EXPECT_EQ(run->report.failure_policy, FailurePolicy::kSkipAndContinue);
}

TEST_F(ResilienceTest, SkipAndContinueQuarantinesNonFiniteBucketUnretried) {
  std::vector<std::string> paths = WriteBuckets();
  PoisonBucket(paths[kCorruptCellLat], 30);  // in the cell's third chunk

  StreamExecOptions exec;
  exec.failure_policy = FailurePolicy::kSkipAndContinue;
  exec.io_retry.max_attempts = 8;
  exec.io_retry.initial_backoff_ms = 0;
  auto run = RunStream(paths, exec);
  ASSERT_TRUE(run.ok()) << run.status();

  EXPECT_EQ(run->cells.size(), kNumCells - 1);
  ASSERT_EQ(run->report.quarantined.size(), 1u) << run->report.Summary();
  const QuarantinedCellReport& q = run->report.quarantined[0];
  EXPECT_EQ(q.cell, (GridCellId{kCorruptCellLat, 0}));
  EXPECT_NE(q.reason.find("non-finite value at point 30, column 0"),
            std::string::npos)
      << q.reason;
  // Bad data is not a transient read failure: no retry was spent on it.
  EXPECT_EQ(run->report.io_retries, 0u);
  EXPECT_TRUE(run->report.degraded);

  exec.failure_policy = FailurePolicy::kFailFast;
  const Status failfast = RunStream(paths, exec).status();
  EXPECT_TRUE(failfast.IsInvalidArgument()) << failfast;
}

TEST_F(ResilienceTest, SkipAndContinueIsDeterministicPerSeed) {
  std::vector<std::string> paths = WriteBuckets();
  CorruptBucket(paths[kCorruptCellLat]);

  auto run_once = [&]() {
    FaultRegistry::Global().Reset();
    EXPECT_TRUE(FaultRegistry::Global()
                    .ArmFromString("io.read:p=0.05,seed=7")
                    .ok());
    StreamExecOptions exec;
    exec.failure_policy = FailurePolicy::kSkipAndContinue;
    exec.io_retry.max_attempts = 8;
    exec.io_retry.initial_backoff_ms = 0;
    return RunStream(paths, exec);
  };
  auto a = run_once();
  auto b = run_once();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // The scan thread consumes the per-site fault stream sequentially, so
  // the retry count and the quarantine list reproduce exactly.
  EXPECT_EQ(a->report.io_retries, b->report.io_retries);
  ASSERT_EQ(a->report.quarantined.size(), b->report.quarantined.size());
  EXPECT_EQ(a->cells.size(), b->cells.size());
}

TEST_F(ResilienceTest, FailFastReturnsFirstErrorOnCorruptBucket) {
  std::vector<std::string> paths = WriteBuckets();
  CorruptBucket(paths[kCorruptCellLat]);

  StreamExecOptions exec;
  exec.failure_policy = FailurePolicy::kFailFast;
  auto run = RunStream(paths, exec);
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsIOError()) << run.status();
  EXPECT_NE(run.status().message().find("truncated bucket payload"),
            std::string::npos)
      << run.status();
}

TEST_F(ResilienceTest, FailFastSurfacesInjectedFault) {
  // A failing scan and failing partial clones alike: the run reports the
  // injected fault, never the merge's complaint about the cells that
  // fault left incomplete.
  std::vector<std::string> paths = WriteBuckets();
  for (const char* spec : {"io.read:n=20,msg=injected fault",
                           "op.partial:n=5,perm=1,msg=injected fault"}) {
    SCOPED_TRACE(spec);
    FaultRegistry::Global().Reset();
    ASSERT_TRUE(FaultRegistry::Global().ArmFromString(spec).ok());
    StreamExecOptions exec;
    exec.failure_policy = FailurePolicy::kFailFast;
    auto run = RunStream(paths, exec);
    ASSERT_FALSE(run.ok());
    EXPECT_TRUE(run.status().IsIOError()) << run.status();
    EXPECT_EQ(run.status().message(), "injected fault");
  }
}

TEST_F(ResilienceTest, RetryOperatorRestartsScanAndRecoversFully) {
  std::vector<std::string> paths = WriteBuckets();
  // One-shot fault: the 30th read hit fails once, then the site is clean,
  // so an executor-level restart of the scan recovers everything.
  ASSERT_TRUE(FaultRegistry::Global().ArmFromString("io.read:n=30").ok());

  StreamExecOptions exec;
  exec.failure_policy = FailurePolicy::kRetryOperator;
  exec.max_retries = 2;
  auto run = RunStream(paths, exec);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->cells.size(), kNumCells);  // nothing lost
  EXPECT_EQ(run->report.operator_restarts, 1u);
  EXPECT_TRUE(run->report.quarantined.empty());
  EXPECT_FALSE(run->report.degraded);
  for (const auto& [cell, clustering] : run->cells) {
    EXPECT_EQ(clustering.input_points, kPointsPerCell);
  }
}

TEST_F(ResilienceTest, RetriedPartialChunkRefitsTheSamePoints) {
  // The partial operator wraps a popped chunk once and retries the fit on
  // that one copy: a chunk whose first attempt fails must refit exactly
  // the same points, so every cell model is bitwise equal to a fault-free
  // run's.
  std::vector<std::string> paths = WriteBuckets();
  StreamExecOptions exec;
  exec.failure_policy = FailurePolicy::kSkipAndContinue;
  exec.io_retry.max_attempts = 3;
  exec.io_retry.initial_backoff_ms = 0;
  auto clean = RunStream(paths, exec);
  ASSERT_TRUE(clean.ok()) << clean.status();

  ASSERT_TRUE(FaultRegistry::Global().ArmFromString("op.partial:n=1").ok());
  auto retried = RunStream(paths, exec);
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_EQ(FaultRegistry::Global().failures("op.partial"), 1u);

  size_t chunk_retries = 0;
  for (const OperatorStats& op : retried->operator_stats) {
    chunk_retries += op.retries;
  }
  EXPECT_EQ(chunk_retries, 1u);
  EXPECT_EQ(retried->report.chunks_dropped, 0u);
  EXPECT_FALSE(retried->report.degraded) << retried->report.Summary();
  ASSERT_EQ(retried->cells.size(), kNumCells);
  for (const auto& [cell, want] : clean->cells) {
    SCOPED_TRACE(cell.ToString());
    const CellClustering& got = retried->cells.at(cell);
    EXPECT_EQ(got.input_points, kPointsPerCell);
    EXPECT_EQ(got.model.centroids, want.model.centroids);
    EXPECT_EQ(got.model.weights, want.model.weights);
    EXPECT_EQ(got.model.sse, want.model.sse);
  }
}

TEST_F(ResilienceTest, RetryOperatorExhaustionFailsTheRun) {
  std::vector<std::string> paths = WriteBuckets();
  CorruptBucket(paths[kCorruptCellLat]);  // permanent: restarts can't help

  StreamExecOptions exec;
  exec.failure_policy = FailurePolicy::kRetryOperator;
  exec.max_retries = 2;
  auto run = RunStream(paths, exec);
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsIOError()) << run.status();
}

TEST_F(ResilienceTest, WatchdogDetectsStalledOperator) {
  // In-memory pipeline with a 60 s stall injected into the first chunk the
  // partial operator picks up; the watchdog must fire within the
  // configured timeout instead of hanging for the full minute.
  ASSERT_TRUE(FaultRegistry::Global()
                  .ArmFromString("op.stall:n=1,stall_ms=60000")
                  .ok());

  std::vector<GridBucket> cells;
  Rng rng(11);
  for (int i = 0; i < 4; ++i) {
    GridBucket bucket;
    bucket.cell = GridCellId{i, 0};
    bucket.points = Dataset(2);
    for (size_t p = 0; p < 32; ++p) {
      bucket.points.Append(
          std::vector<double>{rng.Normal(i * 10.0, 1.0), rng.Normal(0, 1)});
    }
    cells.push_back(std::move(bucket));
  }

  ResourceModel resources;
  resources.cores = 1;  // one partial clone: the stall stalls the pipeline
  StreamExecOptions exec;
  exec.op_timeout_ms = 300;

  const auto started = std::chrono::steady_clock::now();
  auto run = PipelineBuilder()
                 .WithPartialKMeans(PartialConfig())
                 .WithMerge(MergeConfig())
                 .WithResources(resources)
                 .WithChunkPoints(8)
                 .WithExecution(exec)
                 .RunInMemory(std::move(cells));
  const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - started);
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsDeadlineExceeded()) << run.status();
  EXPECT_NE(run.status().message().find("watchdog"), std::string::npos)
      << run.status();
  EXPECT_LT(elapsed.count(), 30) << "watchdog took too long to fire";
}

TEST_F(ResilienceTest, WatchdogStaysQuietOnHealthyRun) {
  std::vector<std::string> paths = WriteBuckets();
  StreamExecOptions exec;
  exec.op_timeout_ms = 10000;
  auto run = RunStream(paths, exec);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->cells.size(), kNumCells);
  EXPECT_TRUE(run->report.stalled_operators.empty());
  EXPECT_FALSE(run->report.degraded);
}

TEST_F(ResilienceTest, SkipAndContinueSurvivesUnreadableFirstBucket) {
  std::vector<std::string> paths = WriteBuckets();
  CorruptBucket(paths[0]);
  // Also make it unopenable so even the planner's probe must skip it.
  {
    std::ofstream out(paths[0], std::ios::binary | std::ios::trunc);
    out.write("XX", 2);
  }
  StreamExecOptions exec;
  exec.failure_policy = FailurePolicy::kSkipAndContinue;
  exec.io_retry.max_attempts = 2;
  exec.io_retry.initial_backoff_ms = 0;
  auto run = RunStream(paths, exec);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->cells.size(), kNumCells - 1);
  ASSERT_EQ(run->report.quarantined.size(), 1u);
  EXPECT_TRUE(run->report.degraded);
}

}  // namespace
}  // namespace pmkm
