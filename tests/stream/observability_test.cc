// Integration coverage for the observability layer: running the real
// partial/merge pipeline must populate per-operator stats, queue
// snapshots, the metrics registry, the trace recorder, and the EXPLAIN
// ANALYZE rendering.

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/logging.h"
#include "common/rng.h"
#include "data/generator.h"
#include "data/io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/engine.h"
#include "stream/explain.h"
#include "stream/plan.h"
#include "tests/bucket_files.h"

namespace pmkm {
namespace {

GridBucket MakeBucket(int lat, int lon, size_t n, uint64_t seed) {
  GridBucket bucket;
  bucket.cell = GridCellId{lat, lon};
  Rng rng(seed);
  MisrCellSpec spec;
  spec.dim = 4;
  bucket.points = GenerateMisrLikeCell(n, &rng, spec);
  return bucket;
}

KMeansConfig PartialConfig() {
  KMeansConfig config;
  config.k = 5;
  config.restarts = 2;
  return config;
}

MergeKMeansConfig MergeConfig() {
  MergeKMeansConfig config;
  config.k = 5;
  return config;
}

const OperatorStats* FindStats(const StreamRunResult& result,
                               const std::string& name) {
  for (const OperatorStats& s : result.operator_stats) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

TEST(ObservabilityTest, InMemoryRunPopulatesOperatorAndQueueStats) {
  BucketFiles files;
  const std::vector<std::string> paths =
      files.Write({MakeBucket(1, 2, 600, 7), MakeBucket(3, 4, 600, 8)});
  ResourceModel resources;
  resources.cores = 3;
  MetricsRegistry registry;
  TraceRecorder tracer;
  auto result = PipelineBuilder()
                    .WithPartialKMeans(PartialConfig())
                    .WithMerge(MergeConfig())
                    .WithResources(resources)
                    .WithChunkPoints(200)
                    .WithMetrics(&registry)
                    .WithTrace(&tracer)
                    .Run(paths);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->cells.size(), 2u);

  // One stats entry per operator instance: scan + clones + merge.
  ASSERT_EQ(result->operator_stats.size(),
            1 + result->plan.partial_clones + 1);
  const OperatorStats* scan = FindStats(*result, "scan");
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->rows_out, 1200u);
  EXPECT_EQ(scan->bytes_out, 1200u * 4 * sizeof(double));
  EXPECT_GT(scan->wall_seconds, 0.0);

  uint64_t partial_rows_in = 0;
  uint64_t partial_iters = 0;
  OperatorStats partial_total;
  for (const OperatorStats& s : result->operator_stats) {
    if (s.name.rfind("partial-kmeans", 0) == 0) {
      partial_rows_in += s.rows_in;
      partial_iters += s.kmeans_iterations;
      partial_total.MergeFrom(s);
    }
  }
  EXPECT_EQ(partial_rows_in, 1200u);
  EXPECT_GT(partial_iters, 0u);

  // The clones' pruned passes, as the operators counted them, add up to
  // the run report's partial counters.
  const LloydCounters& lloyd = result->report.partial_lloyd;
  EXPECT_GT(lloyd.pruned_points, 0u);
  EXPECT_GT(lloyd.survivors, 0u);
  EXPECT_LE(lloyd.survivors, lloyd.pruned_points);
  EXPECT_GE(lloyd.survivor_distances, lloyd.survivors);
  EXPECT_EQ(partial_total.lloyd.pruned_points, lloyd.pruned_points);
  EXPECT_EQ(partial_total.lloyd.survivors, lloyd.survivors);
  EXPECT_EQ(partial_total.lloyd.survivor_distances, lloyd.survivor_distances);
  EXPECT_NE(partial_total.ToString().find(" scan_frac="), std::string::npos);
  EXPECT_NE(result->report.Summary().find("partial.scan_frac="),
            std::string::npos);

  const OperatorStats* merge = FindStats(*result, "merge-kmeans");
  ASSERT_NE(merge, nullptr);
  // 3 chunks per cell × k=5 centroids × 2 cells in, k per cell out.
  EXPECT_EQ(merge->rows_in, 30u);
  EXPECT_EQ(merge->rows_out, 10u);

  // Queue snapshots: the mark respects capacity and everything scanned
  // traveled through the points queue.
  ASSERT_EQ(result->queues.size(), 2u);
  for (const QueueStatsSnapshot& q : result->queues) {
    EXPECT_LE(q.high_water_mark, q.capacity);
    EXPECT_GT(q.total_pushed, 0u);
  }
  EXPECT_EQ(result->queues[0].name, "points");
  EXPECT_EQ(result->queues[1].name, "centroids");
  EXPECT_EQ(result->queues[0].total_pushed, 6u);  // 3 chunks × 2 cells

  // Registry export parses and carries the per-operator counters.
  auto parsed = JsonValue::Parse(registry.ToJson().Dump(2));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_DOUBLE_EQ(parsed->Find("counters")
                       ->Find("op.scan.rows_out")
                       ->AsDouble(),
                   1200.0);
  EXPECT_TRUE(parsed->Find("histograms")->Has("queue.points.pop_wait_us"));

  // The queues time every blocked wait once, into their histograms and
  // the waiting operator's queue_wait_seconds alike.
  double operators_wait_us = 0.0;
  for (const OperatorStats& s : result->operator_stats) {
    operators_wait_us += s.queue_wait_seconds * 1e6;
  }
  double histograms_wait_us = 0.0;
  uint64_t waits = 0;
  for (const char* name :
       {"queue.points.push_block_us", "queue.points.pop_wait_us",
        "queue.centroids.push_block_us", "queue.centroids.pop_wait_us"}) {
    histograms_wait_us += registry.histogram(name).sum();
    waits += registry.histogram(name).count();
  }
  EXPECT_NEAR(operators_wait_us, histograms_wait_us,
              static_cast<double>(waits));

  // The trace saw operator lifetimes and per-chunk/cell spans.
  EXPECT_GT(tracer.size(), 0u);
  bool saw_partial_chunk = false;
  for (const TraceEvent& e : tracer.Events()) {
    if (e.name == "partial.chunk") saw_partial_chunk = true;
  }
  EXPECT_TRUE(saw_partial_chunk);

  // And the run report still works.
  EXPECT_FALSE(result->report.Summary().empty());
  EXPECT_FALSE(result->report.degraded);
}

TEST(ObservabilityTest, EmptyRepairsAddUpAcrossClonesIntoRunReport) {
  // Every point four times over: random seeds land on copies of one
  // point, and all but the lowest-indexed of the tied centroids starve
  // and are re-seeded.
  std::vector<GridBucket> buckets;
  for (int c = 0; c < 2; ++c) {
    GridBucket bucket = MakeBucket(c, -c, 300, 30 + c);
    Dataset repeated(bucket.points.dim());
    for (int copy = 0; copy < 4; ++copy) repeated.AppendAll(bucket.points);
    bucket.points = std::move(repeated);
    buckets.push_back(std::move(bucket));
  }
  BucketFiles files;
  const std::vector<std::string> paths = files.Write(buckets);
  KMeansConfig partial = PartialConfig();
  partial.k = 20;
  partial.restarts = 3;
  ResourceModel resources;
  resources.cores = 3;
  MetricsRegistry registry;
  auto result = PipelineBuilder()
                    .WithPartialKMeans(partial)
                    .WithMerge(MergeConfig())
                    .WithResources(resources)
                    .WithChunkPoints(400)
                    .WithMetrics(&registry)
                    .Run(paths);
  ASSERT_TRUE(result.ok()) << result.status();

  const uint64_t repairs = result->report.partial_lloyd.empty_repairs;
  EXPECT_GT(repairs, 0u);
  OperatorStats partial_total;
  uint64_t exported = 0;
  size_t clones = 0;
  for (const OperatorStats& s : result->operator_stats) {
    if (s.name.rfind("partial-kmeans", 0) != 0) continue;
    ++clones;
    partial_total.MergeFrom(s);
    exported += registry.counter("op." + s.name + ".empty_repairs").value();
  }
  EXPECT_GT(clones, 1u);
  EXPECT_EQ(partial_total.lloyd.empty_repairs, repairs);
  EXPECT_EQ(exported, repairs);
  const std::string count = std::to_string(repairs);
  EXPECT_NE(partial_total.ToString().find(" empty_repairs=" + count + " "),
            std::string::npos)
      << partial_total.ToString();
  EXPECT_DOUBLE_EQ(partial_total.ToJson().Find("empty_repairs")->AsDouble(),
                   static_cast<double>(repairs));
  EXPECT_NE(result->report.Summary().find(", partial.empty_repairs=" + count),
            std::string::npos)
      << result->report.Summary();
  EXPECT_DOUBLE_EQ(RunReportToJson(result->report)
                       .Find("partial_lloyd")
                       ->Find("empty_repairs")
                       ->AsDouble(),
                   static_cast<double>(repairs));
}

// One clone (cores=1) under skip, chunk 200: cell_0_0 holds 400 healthy
// points, then cell_9_9 400 points on the corners of {±1e200}^4. Those
// are finite, so the scan accepts them, but their squared distances
// overflow: both of cell_9_9's chunk fits run their Lloyd passes and then
// fail with "k-means error is not finite", and each drop sends the merge
// a marker for the cell.
Result<StreamRunResult> RunWithFailingChunkFits(BucketFiles* files) {
  GridBucket bad;
  bad.cell = GridCellId{9, 9};
  bad.points = Dataset(4);
  for (uint32_t i = 0; i < 400; ++i) {
    std::vector<double> point(4);
    for (size_t d = 0; d < 4; ++d) {
      point[d] = ((i >> d) & 1u) != 0 ? 1e200 : -1e200;
    }
    bad.points.Append(point);
  }
  ResourceModel resources;
  resources.cores = 1;
  return PipelineBuilder()
      .WithPartialKMeans(PartialConfig())
      .WithMerge(MergeConfig())
      .WithResources(resources)
      .WithChunkPoints(200)
      .WithFailurePolicy(FailurePolicy::kSkipAndContinue)
      .Run(files->Write({MakeBucket(0, 0, 400, 7), std::move(bad)}));
}

// The run report's counters equal the operators' own: the partial clones'
// Lloyd counters and dropped chunks summed, and the scan's retries.
void ExpectReportIsSumOfOperatorStats(const StreamRunResult& result) {
  OperatorStats partials;
  size_t clones = 0;
  for (const OperatorStats& s : result.operator_stats) {
    if (s.name.rfind("partial-kmeans", 0) != 0) continue;
    ++clones;
    partials.MergeFrom(s);
  }
  EXPECT_EQ(clones, result.plan.partial_clones);
  const RunReport& report = result.report;
  EXPECT_GT(report.partial_lloyd.pruned_points, 0u);
  EXPECT_EQ(report.partial_lloyd.pruned_points, partials.lloyd.pruned_points);
  EXPECT_EQ(report.partial_lloyd.survivors, partials.lloyd.survivors);
  EXPECT_EQ(report.partial_lloyd.survivor_distances,
            partials.lloyd.survivor_distances);
  EXPECT_EQ(report.partial_lloyd.empty_repairs,
            partials.lloyd.empty_repairs);
  EXPECT_EQ(report.chunks_dropped, partials.items_dropped);
  const OperatorStats* scan = FindStats(result, "scan");
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(report.io_retries, scan->retries);
}

TEST(ObservabilityTest, RunReportIsTheSumOfOperatorStats) {
  {
    // Three clones; one read fault, which the scan's retry absorbs.
    FaultRegistry::Global().Reset();
    ASSERT_TRUE(FaultRegistry::Global().ArmFromString("io.read:n=4").ok());
    BucketFiles files;
    ResourceModel resources;
    resources.cores = 3;
    StreamExecOptions exec;
    exec.io_retry.max_attempts = 2;
    exec.io_retry.initial_backoff_ms = 0;
    auto result = PipelineBuilder()
                      .WithPartialKMeans(PartialConfig())
                      .WithMerge(MergeConfig())
                      .WithResources(resources)
                      .WithExecution(exec)
                      .WithChunkPoints(200)
                      .Run(files.Write({MakeBucket(0, 0, 600, 1),
                                        MakeBucket(1, 1, 600, 2)}));
    FaultRegistry::Global().Reset();
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->plan.partial_clones, 3u);
    EXPECT_EQ(result->report.io_retries, 1u);
    EXPECT_FALSE(result->report.degraded);
    ExpectReportIsSumOfOperatorStats(*result);
  }
  {
    // The failed fits' passes count on both sides.
    BucketFiles files;
    auto result = RunWithFailingChunkFits(&files);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->report.chunks_dropped, 2u);
    ExpectReportIsSumOfOperatorStats(*result);
  }
}

TEST(ObservabilityTest, MergeSkipsACellDroppedTwiceOnce) {
  BucketFiles files;
  auto result = RunWithFailingChunkFits(&files);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->report.quarantined.size(), 1u)
      << result->report.Summary();
  const QuarantinedCellReport& q = result->report.quarantined[0];
  EXPECT_EQ(q.cell, (GridCellId{9, 9}));
  EXPECT_NE(q.reason.find("k-means error is not finite"), std::string::npos)
      << q.reason;
  EXPECT_EQ(result->cells.size(), 1u);
  const OperatorStats* merge = FindStats(*result, "merge-kmeans");
  ASSERT_NE(merge, nullptr);
  EXPECT_EQ(merge->items_dropped, 1u);
}

TEST(ObservabilityTest, OnDiskRunPopulatesStatsAndExplainAnalyze) {
  const std::string dir = testing::TempDir() + "/pmkm_obs_it";
  std::filesystem::create_directories(dir);
  std::vector<std::string> paths;
  for (int i = 0; i < 2; ++i) {
    const GridBucket bucket = MakeBucket(i, i, 500, 20 + i);
    const std::string path = dir + "/bucket" + std::to_string(i) + ".pmkb";
    ASSERT_TRUE(WriteGridBucket(path, bucket).ok());
    paths.push_back(path);
  }
  ResourceModel resources;
  resources.cores = 2;
  MetricsRegistry registry;
  auto result = PipelineBuilder()
                    .WithPartialKMeans(PartialConfig())
                    .WithMerge(MergeConfig())
                    .WithResources(resources)
                    .WithMetrics(&registry)
                    .Run(paths);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->cells.size(), 2u);

  const OperatorStats* scan = FindStats(*result, "scan");
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->rows_in, 1000u);
  EXPECT_EQ(scan->rows_out, 1000u);
  EXPECT_EQ(scan->retries, 0u);
  EXPECT_EQ(scan->items_dropped, 0u);

  const std::string analyze = ExplainAnalyzePartialMerge(
      PartialConfig(), MergeConfig(), *result);
  EXPECT_NE(analyze.find("merge-kmeans"), std::string::npos) << analyze;
  EXPECT_NE(analyze.find("partial-kmeans"), std::string::npos);
  EXPECT_NE(analyze.find("scan"), std::string::npos);
  EXPECT_NE(analyze.find("exchange \"points\""), std::string::npos);
  EXPECT_NE(analyze.find("exchange \"centroids\""), std::string::npos);
  EXPECT_NE(analyze.find("rows=1000/1000"), std::string::npos);
  EXPECT_NE(analyze.find("total: wall="), std::string::npos);

  std::filesystem::remove_all(dir);
}

TEST(ObservabilityTest, DisabledObsLeavesSinksUntouchedButKeepsStats) {
  BucketFiles files;
  const std::string path = files.Write(MakeBucket(5, 6, 300, 9));
  ResourceModel resources;
  resources.cores = 2;
  auto result = PipelineBuilder()
                    .WithPartialKMeans(PartialConfig())
                    .WithMerge(MergeConfig())
                    .WithResources(resources)
                    .WithChunkPoints(100)
                    .Run({path});
  ASSERT_TRUE(result.ok()) << result.status();
  // Stats and queue snapshots are always collected — only the registry
  // and trace sinks are optional.
  EXPECT_FALSE(result->operator_stats.empty());
  ASSERT_EQ(result->queues.size(), 2u);
  EXPECT_EQ(result->queues[0].total_pushed, 3u);
  const OperatorStats* scan = FindStats(*result, "scan");
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->rows_out, 300u);
}

// Log lines carry the id of the run whose thread wrote them; a line
// written after the run carries none of it.
TEST(ObservabilityTest, RunIdDoesNotOutliveItsRunInLogLines) {
  BucketFiles files;
  auto result = PipelineBuilder()
                    .WithPartialKMeans(PartialConfig())
                    .WithMerge(MergeConfig())
                    .WithRunId("aaaa")
                    .Run({files.Write(MakeBucket(5, 6, 300, 9))});
  ASSERT_TRUE(result.ok()) << result.status();
  testing::internal::CaptureStderr();
  PMKM_LOG(Warning) << "after the run";
  const std::string log = testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("after the run"), std::string::npos) << log;
  EXPECT_EQ(log.find("run=aaaa"), std::string::npos) << log;
}

// Two runs at once in one process, as the serve daemon's workers run
// jobs: each quarantine warning names the run whose scan wrote it.
TEST(ObservabilityTest, ConcurrentRunsLogUnderTheirOwnRunIds) {
  BucketFiles files;
  struct Job {
    std::string run_id;
    std::vector<std::string> paths;  // a good bucket, then a missing one
  };
  const std::vector<Job> jobs = {
      {"aaaa", {files.Write(MakeBucket(1, 1, 300, 1)),
                (files.dir() / "missing_aaaa.pmkb").string()}},
      {"bbbb", {files.Write(MakeBucket(2, 2, 300, 2)),
                (files.dir() / "missing_bbbb.pmkb").string()}}};
  testing::internal::CaptureStderr();
  std::vector<std::thread> threads;
  for (const Job& job : jobs) {
    threads.emplace_back([&job] {
      auto result = PipelineBuilder()
                        .WithPartialKMeans(PartialConfig())
                        .WithMerge(MergeConfig())
                        .WithFailurePolicy(FailurePolicy::kSkipAndContinue)
                        .WithChunkPoints(100)
                        .WithRunId(job.run_id)
                        .Run(job.paths);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(result->report.quarantined.size(), 1u);
    });
  }
  for (std::thread& t : threads) t.join();
  const std::string log = testing::internal::GetCapturedStderr();
  size_t quarantine_lines = 0;
  std::istringstream lines(log);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("quarantining bucket") == std::string::npos) continue;
    ++quarantine_lines;
    for (const Job& job : jobs) {
      if (line.find(job.paths[1]) != std::string::npos) {
        EXPECT_NE(line.find(" run=" + job.run_id + "]"), std::string::npos)
            << line;
      }
    }
  }
  EXPECT_EQ(quarantine_lines, 2u) << log;
}

}  // namespace
}  // namespace pmkm
