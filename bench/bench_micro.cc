// M1 — micro-benchmarks (google-benchmark) for the kernels the experiment
// harnesses are built on: distance evaluation, the kernels' batch
// nearest-centroid assignment (BM_AssignBlock, and
// BM_AssignMasked/.../full with the bound a pruning fit keeps), the
// pruned pass's pair distances (BM_DriftAndSeparation), bound test
// (BM_PruneBlock) and survivor scan (BM_AssignMasked, through the ball
// or, with /all, against every centroid), the scatter that also sums the
// pass's SSE (BM_AccumulateBlock), one Lloyd iteration, partial
// clustering of a chunk, the scan's bucket read per format version
// (BM_BucketScan), queue throughput, one serve job's pipeline run back
// to back and after an idle gap (BM_PipelineRun), and the observability
// primitives (to police the zero-cost-when-disabled budget of DESIGN.md
// §9).

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/distance.h"
#include "cluster/kernels.h"
#include "cluster/kernels/kernel.h"
#include "cluster/kmeans.h"
#include "cluster/merge.h"
#include "cluster/partial.h"
#include "cluster/seeding.h"
#include "common/logging.h"
#include "data/generator.h"
#include "data/io.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/rolling.h"
#include "obs/trace.h"
#include "stream/engine.h"
#include "stream/queue.h"

namespace pmkm {
namespace {

Dataset MakePoints(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  MisrCellSpec spec;
  spec.dim = dim;
  return GenerateMisrLikeCell(n, &rng, spec);
}

void BM_SquaredL2(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  Rng rng(1);
  std::vector<double> a(dim), b(dim);
  for (size_t d = 0; d < dim; ++d) {
    a[d] = rng.Normal();
    b[d] = rng.Normal();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SquaredL2(a.data(), b.data(), dim));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SquaredL2)->Arg(6)->Arg(32)->Arg(128);

void BM_LloydIteration(benchmark::State& state) {
  // One full Lloyd pass (assignment + update) over an N-point cell, k=40.
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset points = MakePoints(n, 6, 4);
  const WeightedDataset data = WeightedDataset::FromUnweighted(points);
  Rng rng(5);
  auto seeds = RandomSeeds(data, 40, &rng);
  LloydConfig config;
  config.max_iterations = 1;
  for (auto _ : state) {
    auto model = RunWeightedLloyd(data, *seeds, config);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LloydIteration)->Arg(2500)->Arg(12500)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_LloydFit(benchmark::State& state, size_t k) {
  // Full run to convergence of N points (first arg), same seeds, with the
  // assignment step's bound pruning off (second arg 0) and on (1):
  // ablation A6 (EXPERIMENTS.md). lloyd_test holds the two models bitwise
  // equal. Registered in RegisterSweeps.
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset points = MakePoints(n, 6, 4);
  const WeightedDataset data = WeightedDataset::FromUnweighted(points);
  Rng rng(5);
  auto seeds = RandomSeeds(data, k, &rng);
  LloydConfig config;
  config.accelerate = state.range(1) != 0;
  for (auto _ : state) {
    auto model = RunWeightedLloyd(data, *seeds, config);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_PartialChunk(benchmark::State& state) {
  // Full multi-restart partial k-means of one memory-sized chunk.
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset chunk = MakePoints(n, 6, 7);
  KMeansConfig config;
  config.k = 40;
  config.restarts = 3;
  const PartialKMeans partial(config);
  for (auto _ : state) {
    auto result = partial.Cluster(chunk, 0);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PartialChunk)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

// A 5,000-point D=6 bucket (a many_cells_io cell) in format `version`.
// The writer writes version 2; version 1 is resealed by hand: the header
// says 1 and the trailer is FNV-1a over the same payload.
std::string WriteScanBucket(uint32_t version) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("pmkm_bm_bucket_scan_v" + std::to_string(version) + "_" +
        std::to_string(::getpid()) + ".pmkb"))
          .string();
  GridBucket bucket;
  bucket.points = MakePoints(5000, 6, 10);
  PMKM_CHECK_OK(WriteGridBucket(path, bucket));
  if (version == 1) {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    const size_t payload = bytes.size() - 32 - sizeof(uint64_t);
    std::memcpy(&bytes[4], &version, sizeof(version));
    const uint64_t hash =
        internal::Fnv1a64(&bytes[32], payload, internal::kFnvOffset);
    std::memcpy(&bytes[32 + payload], &hash, sizeof(hash));
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  return path;
}

void BM_BucketScan(benchmark::State& state) {
  // The scan's read of one bucket, chunk by chunk as ScanOperator reads
  // it (2,730-point chunks, the 512 KiB plan), checksum verified at the
  // end; the argument is the format version. Reads hit the page cache.
  const std::string path =
      WriteScanBucket(static_cast<uint32_t>(state.range(0)));
  Dataset chunk(6);
  size_t points = 0;
  for (auto _ : state) {
    auto reader = GridBucketReader::Open(path);
    if (!reader.ok()) {
      state.SkipWithError(reader.status().ToString().c_str());
      break;
    }
    for (;;) {
      Result<bool> more = reader->Next(2730, &chunk);
      if (!more.ok()) {
        state.SkipWithError(more.status().ToString().c_str());
        break;
      }
      if (!*more) break;
      points += chunk.size();
      benchmark::DoNotOptimize(chunk.data());
    }
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(points * 6 * sizeof(double)));
  std::filesystem::remove(path);
}
BENCHMARK(BM_BucketScan)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

void BM_AssignBlock(benchmark::State& state, const DistanceKernel* kernel,
                    size_t dim) {
  // The assignment hot path in isolation: distances + argmin for a block
  // of points against k=40 centroids, per kernel implementation. Same
  // workload for every kernel, so items_per_second ratios are the
  // scalar-vs-SIMD speed-up the kernel layer buys.
  const size_t n = 4096;
  const size_t k = 40;
  const Dataset points = MakePoints(n, dim, 4);
  const Dataset centroids = MakePoints(k, dim, 2);
  CentroidBlock block;
  block.Load(centroids);
  std::vector<uint32_t> assign(n);
  std::vector<double> dist2(n);
  for (auto _ : state) {
    kernel->AssignBlock(points.data(), n, dim, block, assign.data(),
                        dist2.data());
    benchmark::DoNotOptimize(assign.data());
    benchmark::DoNotOptimize(dist2.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_AssignMaskedFull(benchmark::State& state,
                         const DistanceKernel* kernel, size_t dim,
                         size_t k) {
  // Same, as a full pass of a pruning fit runs it: AssignMasked over
  // every point and centroid, with the lower bound √second2·(1 − δ).
  const size_t n = 4096;
  const Dataset points = MakePoints(n, dim, 4);
  const Dataset centroids = MakePoints(k, dim, 2);
  std::vector<uint32_t> assign(n);
  std::vector<double> dist2(n), lower(n);
  for (auto _ : state) {
    kernel->AssignMasked(points.data(), n, dim, centroids.data(), k, nullptr,
                         nullptr, assign.data(), dist2.data(), lower.data());
    benchmark::DoNotOptimize(assign.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

// The state of a real pruned pass over one paper chunk (2,730 points,
// k=40, or k=8 as a serve chunk): the bounds come from a scan against the
// centroids after `iterations` Lloyd iterations (8 unless given), and the
// pass tests them against the centroids after one more.
struct PrunedPass {
  WeightedDataset data;
  std::vector<uint32_t> assign;
  std::vector<double> dist2, lower;
  Dataset before, after;
  std::vector<double> s;
  std::vector<uint64_t> rings;
  double shift = 0.0;
};

PrunedPass MakePrunedPass(const DistanceKernel* kernel, size_t dim,
                          size_t k = 40, size_t iterations = 8) {
  PrunedPass pass;
  pass.data = WeightedDataset::FromUnweighted(MakePoints(2730, dim, 4));
  const size_t n = pass.data.size();
  Rng seed_rng(5);
  auto seeds = RandomSeeds(pass.data, k, &seed_rng);
  auto centroids_after = [&](size_t iterations) {
    LloydConfig config;
    config.epsilon = 0.0;
    config.max_iterations = iterations;
    return RunWeightedLloyd(pass.data, *seeds, config)->centroids;
  };
  pass.before = centroids_after(iterations);
  pass.after = centroids_after(iterations + 1);
  pass.assign.resize(n);
  pass.dist2.resize(n);
  pass.lower.resize(n);
  kernel->AssignMasked(pass.data.points().data(), n, dim,
                       pass.before.data(), k, nullptr, nullptr,
                       pass.assign.data(), pass.dist2.data(),
                       pass.lower.data());
  std::vector<double> drift(k);
  pass.s.resize(k);
  pass.rings.resize(k * kRingLevels);
  kernel->CentroidDriftAndSeparation(pass.before.data(), pass.after.data(), k,
                                     dim, drift.data(), pass.s.data(),
                                     pass.rings.data());
  pass.shift =
      *std::max_element(drift.begin(), drift.end()) * (1.0 + kPruneSlack);
  return pass;
}

void BM_DriftAndSeparation(benchmark::State& state,
                           const DistanceKernel* kernel, size_t dim,
                           size_t k) {
  // A pruned pass's BeginPass: drift and separation of a real pass's
  // centroids, with the ring masks when k is inside the ball, as the
  // Lloyd loop asks for them. Items are centroids.
  const PrunedPass pass = MakePrunedPass(kernel, dim, k);
  const bool ball = k >= kBallMinK && k <= kBallMaxK;
  std::vector<double> drift(k), s(k);
  std::vector<uint64_t> rings(k * kRingLevels);
  for (auto _ : state) {
    kernel->CentroidDriftAndSeparation(pass.before.data(), pass.after.data(),
                                       k, dim, drift.data(), s.data(),
                                       ball ? rings.data() : nullptr);
    benchmark::DoNotOptimize(s.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * k);
}

void BM_PruneBlock(benchmark::State& state, const DistanceKernel* kernel,
                   size_t dim) {
  // The pruned pass's bound test for one 256-point tile of a real pass.
  const size_t n = 256;
  const PrunedPass pass = MakePrunedPass(kernel, dim);
  std::vector<double> decayed(n), dist2(n);
  std::vector<uint32_t> rows(n);
  for (auto _ : state) {
    // Each iteration decays a fresh copy, as one pass does.
    std::copy(pass.lower.begin(), pass.lower.begin() + n, decayed.begin());
    const size_t m = kernel->PruneBlock(
        pass.data.points().data(), n, dim, pass.after.data(),
        pass.assign.data(), pass.s.data(), pass.shift, decayed.data(),
        dist2.data(), rows.data());
    benchmark::DoNotOptimize(m);
    benchmark::DoNotOptimize(rows.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_AssignMasked(benchmark::State& state, const DistanceKernel* kernel,
                     size_t dim) {
  // The ball scan of one paper chunk's survivors in a real pass: each
  // survivor against the ring mask of its owner and level, grouped by
  // (owner, level) as the Lloyd loop groups them. Items are survivors.
  PrunedPass pass = MakePrunedPass(kernel, dim);
  const size_t n = pass.data.size();
  std::vector<uint32_t> rows(n);
  std::vector<uint8_t> levels(n);
  const size_t m = kernel->PruneBlock(
      pass.data.points().data(), n, dim, pass.after.data(),
      pass.assign.data(), pass.s.data(), pass.shift, pass.lower.data(),
      pass.dist2.data(), rows.data(), levels.data());
  std::vector<std::pair<size_t, uint32_t>> keyed;
  for (size_t g = 0; g < m; ++g) {
    if (levels[g] == kNoRing) continue;
    keyed.emplace_back(pass.assign[rows[g]] * kRingLevels + levels[g],
                       rows[g]);
  }
  std::stable_sort(
      keyed.begin(), keyed.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<uint32_t> ball_rows;
  std::vector<uint64_t> masks;
  for (const auto& [key, row] : keyed) {
    ball_rows.push_back(row);
    masks.push_back(pass.rings[key]);
  }
  for (auto _ : state) {
    kernel->AssignMasked(pass.data.points().data(), ball_rows.size(), dim,
                         pass.after.data(), pass.after.size(),
                         ball_rows.data(), masks.data(),
                         pass.assign.data(), pass.dist2.data(),
                         pass.lower.data());
    benchmark::DoNotOptimize(pass.assign.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * ball_rows.size());
}

void BM_AssignMaskedAll(benchmark::State& state,
                        const DistanceKernel* kernel, size_t dim) {
  // The survivors of one serve chunk's real pass (k=8, below the ball),
  // each against every centroid: AssignMasked with no mask. Items are
  // survivors. The pass is the third, not the tenth: by then a k=8 fit
  // prunes every point.
  PrunedPass pass = MakePrunedPass(kernel, dim, 8, 2);
  const size_t n = pass.data.size();
  std::vector<uint32_t> rows(n);
  const size_t m = kernel->PruneBlock(
      pass.data.points().data(), n, dim, pass.after.data(),
      pass.assign.data(), pass.s.data(), pass.shift, pass.lower.data(),
      pass.dist2.data(), rows.data());
  for (auto _ : state) {
    kernel->AssignMasked(pass.data.points().data(), m, dim,
                         pass.after.data(), pass.after.size(), rows.data(),
                         nullptr, pass.assign.data(), pass.dist2.data(),
                         pass.lower.data());
    benchmark::DoNotOptimize(pass.assign.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m);
}

void BM_AccumulateBlock(benchmark::State& state,
                        const DistanceKernel* kernel, size_t dim) {
  // The centroid update's scatter and the SSE sum over one paper chunk,
  // from a real pass's assign and dist2. Items are points.
  const PrunedPass pass = MakePrunedPass(kernel, dim);
  const size_t n = pass.data.size();
  const size_t k = pass.after.size();
  std::vector<double> sums(k * dim), cluster_weight(k);
  for (auto _ : state) {
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(cluster_weight.begin(), cluster_weight.end(), 0.0);
    const double sse = kernel->AccumulateBlock(
        pass.data.points().data(), pass.data.weights().data(),
        pass.dist2.data(), n, dim, pass.assign.data(), sums.data(),
        cluster_weight.data());
    benchmark::DoNotOptimize(sse);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_PipelineRun(benchmark::State& state, bool idle_gap) {
  // One serve_open job in process: PipelineBuilder::Run over two
  // 10,000-point buckets at k=8, R=5 and two clones, as the daemon runs
  // it. idle_gap starts each run 160 ms after the last one ends (6 jobs/s),
  // when the scheduler tends to leave fresh threads on the spawner's CPU
  // unless the clones' core lease moves them (DESIGN.md §10).
  const bench::TempBucket a(
      GridBucket{GridCellId{0, 0}, MakePoints(10000, 6, 20)});
  const bench::TempBucket b(
      GridBucket{GridCellId{0, 1}, MakePoints(10000, 6, 21)});
  EngineFlags flags;
  flags.k = 8;
  flags.restarts = 5;
  flags.cores = 2;
  const Result<EngineOptions> options = flags.ToOptions();
  PMKM_CHECK(options.ok()) << options.status();
  for (auto _ : state) {
    if (idle_gap) {
      state.PauseTiming();
      std::this_thread::sleep_for(std::chrono::milliseconds(160));
      state.ResumeTiming();
    }
    auto run = PipelineBuilder(*options).Run({a.path(), b.path()});
    if (!run.ok()) {
      state.SkipWithError(run.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(run->cells.size());
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}

void RegisterSweeps() {
  for (const bool idle_gap : {false, true}) {
    benchmark::RegisterBenchmark(
        idle_gap ? "BM_PipelineRun/serve_shape/idle_gap"
                 : "BM_PipelineRun/serve_shape/back_to_back",
        BM_PipelineRun, idle_gap)
        ->Iterations(30)
        ->UseRealTime()
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark("BM_LloydFit", BM_LloydFit, size_t{40})
      ->ArgsProduct({{2500, 12500, 50000}, {0, 1}})
      ->Unit(benchmark::kMillisecond);
  // One serve chunk (k=8, 2,730 points) and one many_cells_io fit (k=4),
  // where a scan that pads k shows.
  for (size_t k : {4u, 8u}) {
    benchmark::RegisterBenchmark(("BM_LloydFit/k" + std::to_string(k)).c_str(),
                                 BM_LloydFit, k)
        ->ArgsProduct({{2730}, {0, 1}})
        ->Unit(benchmark::kMillisecond);
  }
  for (const DistanceKernel* kernel : AvailableKernels()) {
    for (size_t dim : {6u, 16u, 64u}) {
      const std::string tag =
          std::string(kernel->name()) + "/d" + std::to_string(dim);
      benchmark::RegisterBenchmark(("BM_AssignBlock/" + tag).c_str(),
                                   BM_AssignBlock, kernel, dim);
      benchmark::RegisterBenchmark(("BM_AssignMasked/" + tag + "/full").c_str(),
                                   BM_AssignMaskedFull, kernel, dim,
                                   size_t{40});
    }
    benchmark::RegisterBenchmark(
        ("BM_PruneBlock/" + std::string(kernel->name()) + "/d6").c_str(),
        BM_PruneBlock, kernel, size_t{6});
    benchmark::RegisterBenchmark(
        ("BM_AssignMasked/" + std::string(kernel->name()) + "/d6").c_str(),
        BM_AssignMasked, kernel, size_t{6});
    benchmark::RegisterBenchmark(
        ("BM_AssignMasked/" + std::string(kernel->name()) + "/d6/all")
            .c_str(),
        BM_AssignMaskedAll, kernel, size_t{6});
    benchmark::RegisterBenchmark(
        ("BM_AccumulateBlock/" + std::string(kernel->name()) + "/d6").c_str(),
        BM_AccumulateBlock, kernel, size_t{6});
    // The small-k shapes of the many_cells_io (k=4) and serve (k=8)
    // benchmark workloads.
    for (size_t k : {4u, 8u}) {
      benchmark::RegisterBenchmark(
          ("BM_AssignMasked/" + std::string(kernel->name()) + "/d6/full/k" +
           std::to_string(k))
              .c_str(),
          BM_AssignMaskedFull, kernel, size_t{6}, k);
    }
    // BeginPass of a serve chunk (k=8) and of a paper chunk (k=40, with
    // rings).
    for (size_t k : {8u, 40u}) {
      benchmark::RegisterBenchmark(
          ("BM_DriftAndSeparation/" + std::string(kernel->name()) + "/d6/k" +
           std::to_string(k))
              .c_str(),
          BM_DriftAndSeparation, kernel, size_t{6}, k);
    }
  }
}

void BM_QueueThroughput(benchmark::State& state) {
  // Producer/consumer pair shuttling PointChunk-sized payloads.
  const size_t batch = 256;
  for (auto _ : state) {
    BoundedBlockingQueue<Dataset> queue(8);
    queue.AddProducer();
    std::thread producer([&] {
      for (size_t i = 0; i < batch; ++i) {
        queue.Push(MakePoints(64, 6, i));
      }
      queue.CloseProducer();
    });
    size_t received = 0;
    while (auto item = queue.Pop()) ++received;
    producer.join();
    if (received != batch) state.SkipWithError("lost items");
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_QueueThroughput)->Unit(benchmark::kMillisecond);

void BM_MergeStep(benchmark::State& state) {
  // Weighted merge of p×k centroids (the paper's M = k·p input).
  const size_t p = static_cast<size_t>(state.range(0));
  Rng rng(8);
  WeightedDataset pooled(6);
  const Dataset centers = MakePoints(40 * p, 6, 9);
  for (size_t i = 0; i < centers.size(); ++i) {
    pooled.Append(centers.Row(i), 1.0 + rng.UniformInt(500));
  }
  MergeKMeansConfig config;
  config.k = 40;
  const MergeKMeans merger(config);
  for (auto _ : state) {
    auto model = merger.Merge(pooled);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(state.iterations() * pooled.size());
}
BENCHMARK(BM_MergeStep)->Arg(5)->Arg(10)->Arg(20)
    ->Unit(benchmark::kMillisecond);

void BM_ObsCounter(benchmark::State& state) {
  MetricsRegistry registry;
  Counter& c = registry.counter("bench.counter");
  for (auto _ : state) {
    c.Increment();
  }
  benchmark::DoNotOptimize(c.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounter);

void BM_ObsHistogram(benchmark::State& state) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("bench.histogram_us");
  double v = 1.0;
  for (auto _ : state) {
    h.Record(v);
    v = v < 1e6 ? v * 1.5 : 1.0;
  }
  benchmark::DoNotOptimize(h.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogram);

void BM_ObsSpanDisabled(benchmark::State& state) {
  // A null recorder must make spans free: this is what every per-chunk
  // span costs in an uninstrumented pipeline.
  for (auto _ : state) {
    ScopedSpan span(nullptr, "bench.span");
    benchmark::DoNotOptimize(span.enabled());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSpanDisabled);

void BM_ObsSpanEnabled(benchmark::State& state) {
  TraceRecorder recorder;
  for (auto _ : state) {
    ScopedSpan span(&recorder, "bench.span");
    benchmark::DoNotOptimize(span.enabled());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSpanEnabled);

void BM_ObsRollingHistogram(benchmark::State& state) {
  // The windowed variant's record cost: one CAS-claimed slot plus the
  // cumulative histogram — what scan.bucket_us pays per work unit.
  MetricsRegistry registry;
  RollingHistogram& h = registry.rolling_histogram("bench.rolling_us");
  double v = 1.0;
  for (auto _ : state) {
    h.Record(v);
    v = v < 1e6 ? v * 1.5 : 1.0;
  }
  benchmark::DoNotOptimize(h.total().count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsRollingHistogram);

void BM_ProfilerOff(benchmark::State& state) {
  // A stopped profiler adds zero instructions to compute code; this
  // pins the "no perf regression with the profiler off" acceptance bar
  // by timing a compute kernel while the global profiler exists unused.
  volatile double acc = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::CpuProfiler::Global().running());
    for (int i = 0; i < 64; ++i) {
      acc = acc + static_cast<double>(i);
    }
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfilerOff);

}  // namespace
}  // namespace pmkm

int main(int argc, char** argv) {
  pmkm::RegisterSweeps();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
