// M1 — micro-benchmarks (google-benchmark) for the kernels the experiment
// harnesses are built on: distance evaluation, the kernels' batch
// nearest-centroid assignment (BM_AssignBlock*), the pruned pass's bound
// test (BM_PruneBlock), one Lloyd iteration,
// partial clustering of a chunk, queue throughput, and the observability
// primitives (to police the zero-cost-when-disabled budget of DESIGN.md
// §9).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "cluster/distance.h"
#include "cluster/kernels/kernel.h"
#include "cluster/kmeans.h"
#include "cluster/merge.h"
#include "cluster/partial.h"
#include "common/logging.h"
#include "data/generator.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/rolling.h"
#include "obs/trace.h"
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
  auto seeds = SelectSeeds(data, 40, SeedingMethod::kRandom, &rng);
  LloydConfig config;
  config.max_iterations = 1;
  for (auto _ : state) {
    Rng iter_rng(6);
    auto model = RunWeightedLloyd(data, *seeds, config, &iter_rng);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LloydIteration)->Arg(2500)->Arg(12500)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_LloydFit(benchmark::State& state) {
  // Full run to convergence, same seeds, with the assignment step's bound
  // pruning off (second arg 0) and on (1).
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset points = MakePoints(n, 6, 4);
  const WeightedDataset data = WeightedDataset::FromUnweighted(points);
  Rng rng(5);
  auto seeds = SelectSeeds(data, 40, SeedingMethod::kRandom, &rng);
  LloydConfig config;
  config.accelerate = state.range(1) != 0;
  for (auto _ : state) {
    Rng iter_rng(6);
    auto model = RunWeightedLloyd(data, *seeds, config, &iter_rng);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LloydFit)->ArgsProduct({{2500, 12500}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

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

void BM_AssignBlockSecond(benchmark::State& state,
                          const DistanceKernel* kernel, size_t dim,
                          size_t k) {
  // Same, with the second-best distance Hamerly's lower bound needs.
  const size_t n = 4096;
  const Dataset points = MakePoints(n, dim, 4);
  const Dataset centroids = MakePoints(k, dim, 2);
  CentroidBlock block;
  block.Load(centroids);
  std::vector<uint32_t> assign(n);
  std::vector<double> dist2(n), second2(n);
  for (auto _ : state) {
    kernel->AssignBlock(points.data(), n, dim, block, assign.data(),
                        dist2.data(), second2.data());
    benchmark::DoNotOptimize(assign.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_PruneBlock(benchmark::State& state, const DistanceKernel* kernel,
                   size_t dim) {
  // The pruned pass's bound test for one 256-point tile, k=40, with the
  // bounds and drift of a real pass: the tile's bounds come from a scan
  // against the centroids after 8 Lloyd iterations, and the pass tests
  // them against the centroids after 9.
  const size_t n = 256;
  const size_t k = 40;
  const WeightedDataset data =
      WeightedDataset::FromUnweighted(MakePoints(2730, dim, 4));
  Rng seed_rng(5);
  auto seeds = SelectSeeds(data, k, SeedingMethod::kRandom, &seed_rng);
  auto centroids_after = [&](size_t iterations) {
    LloydConfig config;
    config.epsilon = 0.0;
    config.max_iterations = iterations;
    Rng rng(6);
    return RunWeightedLloyd(data, *seeds, config, &rng)->centroids;
  };
  const Dataset before = centroids_after(8);
  const Dataset after = centroids_after(9);
  CentroidBlock block;
  block.Load(before);
  std::vector<uint32_t> assign(n);
  std::vector<double> dist2(n), lower(n);
  kernel->AssignBlock(data.points().data(), n, dim, block, assign.data(),
                      dist2.data(), lower.data());
  for (double& l : lower) l = std::sqrt(l) * (1.0 - kPruneSlack);
  block.Load(after);
  std::vector<double> drift(k), s(k);
  kernel->CentroidDriftAndSeparation(before.data(), after.data(), block, k,
                                     dim, drift.data(), s.data());
  const double shift =
      *std::max_element(drift.begin(), drift.end()) * (1.0 + kPruneSlack);
  std::vector<double> decayed(n);
  std::vector<uint32_t> rows(n);
  for (auto _ : state) {
    // Each iteration decays a fresh copy, as one pass does.
    std::copy(lower.begin(), lower.end(), decayed.begin());
    const size_t m = kernel->PruneBlock(
        data.points().data(), n, dim, after.data(), assign.data(), s.data(),
        shift, decayed.data(), dist2.data(), rows.data());
    benchmark::DoNotOptimize(m);
    benchmark::DoNotOptimize(rows.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void RegisterKernelSweeps() {
  for (const DistanceKernel* kernel : AvailableKernels()) {
    for (size_t dim : {6u, 16u, 64u}) {
      const std::string tag =
          std::string(kernel->name()) + "/d" + std::to_string(dim);
      benchmark::RegisterBenchmark(("BM_AssignBlock/" + tag).c_str(),
                                   BM_AssignBlock, kernel, dim);
      benchmark::RegisterBenchmark(("BM_AssignBlockSecond/" + tag).c_str(),
                                   BM_AssignBlockSecond, kernel, dim,
                                   size_t{40});
    }
    benchmark::RegisterBenchmark(
        ("BM_PruneBlock/" + std::string(kernel->name()) + "/d6").c_str(),
        BM_PruneBlock, kernel, size_t{6});
    // The small-k shapes of the many_cells_io (k=4) and serve (k=8)
    // benchmark workloads.
    for (size_t k : {4u, 8u}) {
      const std::string tag = std::string(kernel->name()) + "/d6/k" +
                              std::to_string(k);
      benchmark::RegisterBenchmark(("BM_AssignBlockSecond/" + tag).c_str(),
                                   BM_AssignBlockSecond, kernel, size_t{6},
                                   k);
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

void BM_LogRateLimitedSuppressed(benchmark::State& state) {
  // A dropped rate-limited log line must cost one atomic CAS, not a
  // render: this is the hot-path budget for PMKM_LOG_RATELIMITED.
  internal::LogTokenBucket bucket(1e-3);  // effectively always dry
  bucket.AcquireAt(1);                    // drain the burst
  uint64_t sink = 0;
  for (auto _ : state) {
    sink += bucket.AcquireAt(2);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogRateLimitedSuppressed);

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
  pmkm::RegisterKernelSweeps();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
