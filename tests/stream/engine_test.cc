// EngineOptions / EngineFlags / PipelineBuilder: the unified front door
// to the streamed partial/merge pipeline.

#include "stream/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "cluster/kernels.h"
#include "cluster/kernels/kernel.h"
#include "cluster/serialize.h"
#include "common/flags.h"
#include "data/generator.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tests/bucket_files.h"

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
                        "--kernel=scalar", "--max_retries=4",
                        "--deadline_ms=250"};
  ASSERT_TRUE(parser.Parse(9, const_cast<char**>(argv)).ok());
  auto options = flags.ToOptions();
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_EQ(options->partial.k, 7u);
  EXPECT_EQ(options->partial.restarts, 3u);
  EXPECT_EQ(options->merge.k, 7u);
  EXPECT_EQ(options->resources.memory_bytes_per_operator, 64u << 10);
  EXPECT_EQ(options->resources.cores, 5u);
  EXPECT_EQ(options->exec.failure_policy,
            FailurePolicy::kSkipAndContinue);
  // --kernel lands in both k-means configs.
  ASSERT_NE(options->partial.lloyd.kernel, nullptr);
  ASSERT_NE(options->merge.lloyd.kernel, nullptr);
  EXPECT_EQ(options->partial.lloyd.kernel->kind(), KernelKind::kScalar);
  EXPECT_EQ(options->merge.lloyd.kernel->kind(), KernelKind::kScalar);
  // --max_retries is the one retry budget: attempts = retries + 1.
  EXPECT_EQ(options->exec.io_retry.max_attempts, 5u);
  EXPECT_EQ(options->exec.deadline_ms, 250u);

  // The defaults: failfast, no retry, no deadline.
  auto defaults = EngineFlags{}.ToOptions();
  ASSERT_TRUE(defaults.ok()) << defaults.status();
  EXPECT_EQ(defaults->exec.failure_policy, FailurePolicy::kFailFast);
  EXPECT_EQ(defaults->exec.io_retry.max_attempts, 1u);
  EXPECT_EQ(defaults->exec.deadline_ms, 0u);
}

TEST(EngineFlagsTest, RejectsBadValues) {
  {
    EngineFlags flags;
    flags.k = 0;
    EXPECT_TRUE(flags.ToOptions().status().IsInvalidArgument());
  }
  // "retry" is no policy: a retry budget is --max_retries under either
  // policy.
  for (const char* policy : {"shrug", "retry", "fail_fast"}) {
    EngineFlags flags;
    flags.failure_policy = policy;
    EXPECT_TRUE(flags.ToOptions().status().IsInvalidArgument()) << policy;
  }
  {
    EngineFlags flags;
    flags.kernel = "mmx";
    EXPECT_TRUE(flags.ToOptions().status().IsInvalidArgument());
  }
  // Negative sizes and counts are rejected, not cast to huge unsigned
  // values or clamped.
  for (int64_t EngineFlags::*field :
       {&EngineFlags::memory_kib, &EngineFlags::cores,
        &EngineFlags::max_retries, &EngineFlags::deadline_ms}) {
    EngineFlags flags;
    flags.*field = -1;
    EXPECT_TRUE(flags.ToOptions().status().IsInvalidArgument());
  }
  {
    // memory_kib << 10 would wrap to a 0-byte budget.
    EngineFlags flags;
    flags.memory_kib = int64_t{1} << 54;
    EXPECT_TRUE(flags.ToOptions().status().IsInvalidArgument());
  }
  {
    // Every bucket read and chunk fit may retry this often, and a remote
    // client can ask for it: the budget is capped.
    EngineFlags flags;
    flags.max_retries = 17;
    EXPECT_TRUE(flags.ToOptions().status().IsInvalidArgument());
  }
}

TEST(PipelineBuilderTest, RunIsDeterministic) {
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
  BucketFiles files;
  auto first = builder.Run({files.Write(MakeBucket(1, 600, 2))});
  auto second = builder.Run({files.Write(MakeBucket(1, 600, 2))});
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  const auto& a = first->cells.at(GridCellId{1, 1});
  const auto& b = second->cells.at(GridCellId{1, 1});
  EXPECT_EQ(a.model.centroids, b.model.centroids);
  EXPECT_EQ(a.model.sse, b.model.sse);
}

// Both k-means of the pipeline on the scalar kernel.
EngineOptions ScalarOptions() {
  EngineOptions options;
  options.partial.lloyd.kernel = &GetKernel(KernelKind::kScalar);
  options.merge.lloyd.kernel = &GetKernel(KernelKind::kScalar);
  return options;
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

  BucketFiles files;
  const std::string path = files.Write(MakeBucket(2, 1500, 3));
  auto Run = [&](KernelKind kind) {
    KMeansConfig on_partial = partial;
    MergeKMeansConfig on_merge = merge;
    on_partial.lloyd.kernel = &GetKernel(kind);
    on_merge.lloyd.kernel = &GetKernel(kind);
    return PipelineBuilder()
        .WithPartialKMeans(on_partial)
        .WithMerge(on_merge)
        .WithResources(resources)
        .Run({path});
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
  BucketFiles files;
  auto result = PipelineBuilder(ScalarOptions())
                    .Run({files.Write(MakeBucket(3, 800, 4))});
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
  BucketFiles files;
  auto result = PipelineBuilder()
                    .WithMetrics(&registry)
                    .WithTrace(&trace)
                    .Run({files.Write(MakeBucket(4, 500, 5))});
  ASSERT_TRUE(result.ok()) << result.status();
  // The queue gauges only exist when the metrics sink was attached.
  const std::string json = registry.ToJson().Dump(2);
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
  BucketFiles files;
  auto result = PipelineBuilder()
                    .WithPartialKMeans(partial)
                    .WithMerge(merge)
                    .WithResources(resources)
                    .WithChunkPoints(2000)
                    .Run({files.Write(MakeBucket(5, 4000, 6))});
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
  BucketFiles files;
  auto run = PipelineBuilder()
                 .WithPartialKMeans(partial)
                 .WithMerge(merge)
                 .WithChunkPoints(points.size())
                 .Run({files.Write(GridBucket{GridCellId{0, 0}, points})});
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
  BucketFiles files;
  std::vector<std::string> paths;
  for (int id = 0; id < 5; ++id) {
    paths.push_back(files.Write(MakeBucket(id, 400 + 150 * id, 30 + id)));
  }
  const std::vector<std::string> reversed(paths.rbegin(), paths.rend());
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
  auto forward = builder.Run(paths);
  auto backward = builder.Run(reversed);
  ASSERT_TRUE(forward.ok()) << forward.status();
  ASSERT_TRUE(backward.ok()) << backward.status();
  ASSERT_EQ(forward->cells.size(), 5u);
  ASSERT_EQ(backward->cells.size(), 5u);

  for (const auto& [cell, clustering] : forward->cells) {
    SCOPED_TRACE(cell.ToString());
    ASSERT_EQ(backward->cells.count(cell), 1u);
    EXPECT_EQ(EncodeModel(clustering.model),
              EncodeModel(backward->cells.at(cell).model));
  }
}

TEST(PipelineBuilderTest, ExplainNamesKernel) {
  BucketFiles files;
  auto text = PipelineBuilder(ScalarOptions())
                  .Explain({files.Write(MakeBucket(6, 300, 7))});
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("kernel=scalar"), std::string::npos);
}

TEST(PipelineBuilderTest, ClonesFollowTheRunsChunkCount) {
  // 16 cells of two chunks each at four cores: the run has 32 chunks, so
  // every core runs a clone (a cap by one cell's chunks would plan 2).
  // The clone count never changes the models.
  BucketFiles files;
  std::vector<std::string> paths;
  for (int c = 0; c < 16; ++c) {
    paths.push_back(files.Write(MakeBucket(c, 400, 30 + c)));
  }
  EngineOptions options = ScalarOptions();
  options.partial.k = 4;
  options.partial.restarts = 2;
  options.merge.k = 4;
  options.resources.memory_bytes_per_operator = 6 * 8 * 4 * 200;
  options.resources.cores = 4;
  auto four = PipelineBuilder(options).Run(paths);
  options.resources.cores = 1;
  auto one = PipelineBuilder(options).Run(paths);
  ASSERT_TRUE(four.ok()) << four.status();
  ASSERT_TRUE(one.ok()) << one.status();
  EXPECT_EQ(four->plan.chunk_points, 200u);
  EXPECT_EQ(four->plan.partial_clones, 4u);
  EXPECT_EQ(one->plan.partial_clones, 1u);
  ASSERT_EQ(four->cells.size(), 16u);
  ASSERT_EQ(one->cells.size(), 16u);
  for (const auto& [cell, clustering] : four->cells) {
    SCOPED_TRACE(cell.ToString());
    EXPECT_EQ(EncodeModel(clustering.model),
              EncodeModel(one->cells.at(cell).model));
  }
}

TEST(PipelineBuilderTest, PlanSizesFromWhatTheFileHoldsNotItsHeader) {
  // Four buckets of 10 points whose headers each claim 2^62. Trusting the
  // header, the run's estimate 4 · 2^62 wraps to 0 points and one cell's
  // chunk count alone lets every core run a clone.
  BucketFiles files;
  std::vector<std::string> paths;
  for (int c = 0; c < 4; ++c) {
    const std::string path = files.Write(MakeBucket(c, 10, 40 + c));
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    const uint64_t claimed = uint64_t{1} << 62;
    f.seekp(24);  // the header's u64 point count
    f.write(reinterpret_cast<const char*>(&claimed), sizeof(claimed));
    ASSERT_TRUE(f.good());
    paths.push_back(path);
  }
  EngineOptions options = ScalarOptions();
  options.resources.cores = 8;
  auto text = PipelineBuilder(options).Explain(paths);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("~40 pts"), std::string::npos) << *text;
  EXPECT_NE(text->find("partial-kmeans ×4 clones"), std::string::npos)
      << *text;
}

// k = 4 with one restart, so the input checks below run fast.
PipelineBuilder SmallBuilder(FailurePolicy policy) {
  KMeansConfig partial;
  partial.k = 4;
  partial.restarts = 1;
  MergeKMeansConfig merge;
  merge.k = 4;
  return PipelineBuilder()
      .WithPartialKMeans(partial)
      .WithMerge(merge)
      .WithFailurePolicy(policy);
}

// One job whose buckets differ in D. The plan sizes chunks from the first
// bucket's D=2, so the D=6 bucket after it would run chunks three times
// the per-operator memory budget; the scan rejects it instead.
class MixedDimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(11);
    narrow_.cell = GridCellId{0, 0};
    narrow_.points = GenerateUniform(400, 2, -1.0, 1.0, &rng);
    paths_ = files_.Write({narrow_, MakeBucket(1, 400, 12)});
  }

  BucketFiles files_;
  GridBucket narrow_;
  std::vector<std::string> paths_;
};

TEST_F(MixedDimTest, FailFastRejectsTheBucketWhoseDimDiffers) {
  auto run = SmallBuilder(FailurePolicy::kFailFast).Run(paths_);
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsInvalidArgument()) << run.status();
  EXPECT_NE(run.status().message().find(paths_[1]), std::string::npos)
      << run.status();
}

TEST_F(MixedDimTest, SkipQuarantinesTheBucketWhoseDimDiffers) {
  auto run = SmallBuilder(FailurePolicy::kSkipAndContinue).Run(paths_);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_EQ(run->cells.size(), 1u);
  EXPECT_EQ(run->cells.begin()->first, narrow_.cell);
  EXPECT_EQ(run->cells.begin()->second.input_points, 400u);
  ASSERT_EQ(run->report.quarantined.size(), 1u) << run->report.Summary();
  EXPECT_EQ(run->report.quarantined[0].path, paths_[1]);
  EXPECT_NE(run->report.quarantined[0].reason.find("D=6"), std::string::npos)
      << run->report.quarantined[0].reason;
  EXPECT_TRUE(run->report.degraded);
}

// The scan's two per-bucket input checks. Both fail with InvalidArgument,
// which is never retried, so `skip` quarantines the bucket like one whose
// D differs from the plan.
class ScanInputTest : public ::testing::Test {
 protected:
  static GridBucket Cell(GridCellId cell, size_t n, uint64_t seed) {
    Rng rng(seed);
    return GridBucket{cell, GenerateUniform(n, 2, -1.0, 1.0, &rng)};
  }

  BucketFiles files_;
};

TEST_F(ScanInputTest, FailFastRejectsAnEmptyBucket) {
  const std::vector<std::string> paths = files_.Write(
      {Cell({0, 0}, 100, 1), GridBucket{{0, 1}, Dataset(2)}});
  auto run = SmallBuilder(FailurePolicy::kFailFast).Run(paths);
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsInvalidArgument()) << run.status();
  EXPECT_NE(run.status().message().find(paths[1] + " has no points"),
            std::string::npos)
      << run.status();
}

TEST_F(ScanInputTest, SkipQuarantinesAnEmptyBucket) {
  const std::vector<std::string> paths = files_.Write(
      {GridBucket{{0, 1}, Dataset(2)}, Cell({0, 0}, 100, 1)});
  auto run = SmallBuilder(FailurePolicy::kSkipAndContinue).Run(paths);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_EQ(run->cells.size(), 1u);
  EXPECT_EQ(run->cells.begin()->first, (GridCellId{0, 0}));
  ASSERT_EQ(run->report.quarantined.size(), 1u) << run->report.Summary();
  EXPECT_EQ(run->report.quarantined[0].path, paths[0]);
  EXPECT_TRUE(run->report.degraded);
}

TEST_F(ScanInputTest, FailFastRejectsTwoBucketsOfOneCell) {
  const std::vector<std::string> paths = files_.Write(
      {Cell({0, 0}, 100, 1), Cell({0, 1}, 100, 2), Cell({0, 0}, 100, 3)});
  auto run = SmallBuilder(FailurePolicy::kFailFast).Run(paths);
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsInvalidArgument()) << run.status();
  EXPECT_NE(run.status().message().find(paths[0]), std::string::npos)
      << run.status();
  EXPECT_NE(run.status().message().find(paths[2]), std::string::npos)
      << run.status();
}

TEST_F(ScanInputTest, SkipQuarantinesTheCellOfTwoBuckets) {
  // The first bucket of the cell may already be merged when the second
  // arrives; the whole cell goes, and is reported once.
  const std::vector<std::string> paths = files_.Write(
      {Cell({0, 0}, 100, 1), Cell({0, 1}, 100, 2), Cell({0, 0}, 100, 3)});
  auto run = SmallBuilder(FailurePolicy::kSkipAndContinue).Run(paths);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_EQ(run->cells.size(), 1u);
  EXPECT_EQ(run->cells.begin()->first, (GridCellId{0, 1}));
  ASSERT_EQ(run->report.quarantined.size(), 1u) << run->report.Summary();
  EXPECT_EQ(run->report.quarantined[0].path, paths[2]);
  EXPECT_EQ(run->report.quarantined[0].cell, (GridCellId{0, 0}));
  EXPECT_TRUE(run->report.degraded);
}

TEST_F(ScanInputTest, SamePathListedTwiceIsADuplicate) {
  const std::string path = files_.Write(Cell({0, 0}, 100, 1));
  auto run = SmallBuilder(FailurePolicy::kFailFast).Run({path, path});
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsInvalidArgument()) << run.status();
}

// --- Degenerate cells: each gives a defined result on every core count ---

// Every case splits its cell into several chunks, so four cores run more
// than one partial clone.
struct DegenerateCell {
  const char* name;
  Dataset points;
  size_t k;
  size_t chunk_points;
};

void PrintTo(const DegenerateCell& cell, std::ostream* os) {
  *os << cell.name;
}

// `distinct` 2-D points, repeated round-robin up to `n`.
Dataset RepeatedPoints(size_t n, size_t distinct) {
  Dataset points(2);
  for (size_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(i % distinct);
    points.Append(std::vector<double>{v, -2.0 * v + 0.5});
  }
  return points;
}

std::vector<DegenerateCell> DegenerateCells() {
  return {
      {"KGreaterThanN", RepeatedPoints(5, 5), 8, 2},
      {"AllPointsIdentical", RepeatedPoints(200, 1), 4, 50},
      {"FewerDistinctPointsThanK", RepeatedPoints(240, 3), 6, 60},
      {"SinglePointPartitions", RepeatedPoints(40, 40), 3, 1},
  };
}

class DegenerateCellTest : public ::testing::TestWithParam<DegenerateCell> {
 protected:
  Result<StreamRunResult> Run(const std::string& path, size_t cores) {
    const DegenerateCell& cell = GetParam();
    EngineOptions options;
    options.partial.k = cell.k;
    options.partial.restarts = 3;
    options.merge.k = cell.k;
    options.resources.cores = cores;
    return PipelineBuilder(options)
        .WithChunkPoints(cell.chunk_points)
        .Run({path});
  }
};

TEST_P(DegenerateCellTest, ModelIsDefinedAndIdenticalAtOneAndFourCores) {
  const DegenerateCell& cell = GetParam();
  BucketFiles files;
  const std::string path =
      files.Write(GridBucket{GridCellId{0, 0}, cell.points});
  auto one = Run(path, 1);
  auto four = Run(path, 4);
  ASSERT_TRUE(one.ok()) << one.status();
  ASSERT_TRUE(four.ok()) << four.status();
  EXPECT_GT(four->plan.partial_clones, 1u);
  ASSERT_EQ(one->cells.size(), 1u);
  ASSERT_EQ(four->cells.size(), 1u);
  const ClusteringModel& model = one->cells.begin()->second.model;
  EXPECT_TRUE(std::isfinite(model.sse)) << model.sse;
  EXPECT_GE(model.sse, 0.0);
  EXPECT_LE(model.k(), cell.k);
  double mass = 0.0;
  for (const double w : model.weights) mass += w;
  EXPECT_EQ(mass, static_cast<double>(cell.points.size()));
  EXPECT_EQ(EncodeModel(model),
            EncodeModel(four->cells.begin()->second.model));
}

INSTANTIATE_TEST_SUITE_P(
    Cells, DegenerateCellTest, ::testing::ValuesIn(DegenerateCells()),
    [](const ::testing::TestParamInfo<DegenerateCell>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace pmkm
