// Experiment A3 — places partial/merge k-means against the related-work
// algorithms the paper discusses (§2.2) and their modern descendants:
// BIRCH (CF-tree + global clustering), STREAM LOCALSEARCH (O'Callaghan et
// al. [7]), mini-batch k-means, online k-means, plus the serial baseline.
// All methods produce k centers; quality is SSE of those centers over the
// raw cell (the honest cross-algorithm metric).

#include <algorithm>
#include <iostream>

#include "baselines/birch.h"
#include "baselines/minibatch.h"
#include "baselines/online.h"
#include "baselines/stream_ls.h"
#include "bench/bench_util.h"
#include "cluster/metrics.h"
#include "common/stopwatch.h"

namespace pmkm {
namespace bench {
namespace {

struct Row {
  std::string name;
  double ms = 0.0;
  double sse_raw = 0.0;
};

int Main(int argc, char** argv) {
  ExperimentGrid grid;
  int64_t n = 50000;
  FlagParser parser;
  grid.Register(&parser);
  parser.AddInt("n", &n, "cell size");
  const Status st = parser.Parse(argc, argv);
  if (st.IsCancelled()) return 0;
  PMKM_CHECK_OK(st);
  grid.Finalize();
  if (grid.quick) n = std::min<int64_t>(n, 10000);
  const size_t k = static_cast<size_t>(grid.k);

  PrintBanner("Baselines A3",
              "partial/merge vs BIRCH, STREAM LocalSearch, mini-batch, "
              "online k-means", grid);
  std::cout << "N=" << n << ", all methods emit k=" << k << " centers\n\n";
  std::cout << " method                |     time(ms) |     SSE(raw) | vs "
               "serial SSE\n";
  std::cout << "-----------------------+--------------+--------------+----"
               "----------\n";

  std::vector<Row> rows;
  double serial_sse = 0.0;
  for (int64_t v = 0; v < grid.versions; ++v) {
    const Dataset cell = MakeCell(n, grid, v);
    const uint64_t seed = 7000 + static_cast<uint64_t>(v);
    auto add = [&](size_t idx, const std::string& name, double ms,
                   double sse) {
      if (rows.size() <= idx) rows.push_back(Row{name, 0.0, 0.0});
      rows[idx].ms += ms;
      rows[idx].sse_raw += sse;
    };

    {
      const RunStats s = RunSerial(cell, grid, seed);
      add(0, "serial k-means", s.total_ms, s.sse_raw);
      serial_sse += s.sse_raw;
    }
    {
      ClusteringModel merged;
      const RunStats s = RunPartialMerge(cell, grid, 10, seed, &merged);
      add(1, "partial/merge 10-split", s.total_ms, s.sse_raw);
      // A second look at the raw cell: 3 Lloyd iterations seeded with the
      // merged centroids, the cheap fix for the E_pm-vs-raw gap.
      LloydConfig refine;
      refine.max_iterations = 3;
      refine.accelerate = grid.accelerate;
      Rng rng(seed);
      const Stopwatch watch;
      auto refined = RunWeightedLloyd(WeightedDataset::FromUnweighted(cell),
                                      std::move(merged.centroids), refine,
                                      &rng);
      PMKM_CHECK(refined.ok()) << refined.status();
      add(2, "pm 10-split + refine3", s.total_ms + watch.ElapsedMillis(),
          Sse(refined->centroids, cell));
    }
    {
      BirchConfig config;
      config.k = k;
      config.max_leaf_entries = 4 * k;
      config.global.restarts = static_cast<size_t>(grid.restarts);
      config.global.seed = seed;
      Birch birch(cell.dim(), config);
      const Stopwatch watch;
      PMKM_CHECK_OK(birch.InsertAll(cell));
      auto model = birch.Finish();
      PMKM_CHECK(model.ok()) << model.status();
      add(3, "BIRCH (CF-tree)", watch.ElapsedMillis(),
          Sse(model->centroids, cell));
    }
    {
      StreamLsConfig config;
      config.k = k;
      config.chunk_points = static_cast<size_t>(
          std::max<int64_t>(1000, n / 10));
      config.seed = seed;
      StreamLocalSearch stream(cell.dim(), config);
      const Stopwatch watch;
      PMKM_CHECK_OK(stream.Append(cell));
      auto model = stream.Finish();
      PMKM_CHECK(model.ok()) << model.status();
      add(4, "STREAM LocalSearch", watch.ElapsedMillis(),
          Sse(model->centroids, cell));
    }
    {
      MiniBatchConfig config;
      config.k = k;
      config.seed = seed;
      const Stopwatch watch;
      auto model = MiniBatchKMeans(cell, config);
      PMKM_CHECK(model.ok()) << model.status();
      add(5, "mini-batch k-means", watch.ElapsedMillis(), model->sse);
    }
    {
      OnlineKMeansConfig config;
      config.k = k;
      config.seed = seed;
      OnlineKMeans online(cell.dim(), config);
      const Stopwatch watch;
      PMKM_CHECK_OK(online.ObserveAll(cell));
      const double ms = watch.ElapsedMillis();
      auto model = online.Snapshot(&cell);
      PMKM_CHECK(model.ok()) << model.status();
      add(6, "online k-means", ms, model->sse);
    }
  }

  const double inv = 1.0 / static_cast<double>(grid.versions);
  serial_sse *= inv;
  for (const Row& row : rows) {
    std::string name = row.name;
    name.resize(22, ' ');
    std::cout << " " << name << "| " << Fmt(row.ms * inv, 12) << " | "
              << Fmt(row.sse_raw * inv, 12, 0) << " | "
              << Fmt(row.sse_raw * inv / std::max(serial_sse, 1e-9), 9, 2)
              << "x\n";
  }
  std::cout << "\nReading: partial/merge should land at or below the "
               "serial SSE at a fraction of\nits time; BIRCH and STREAM "
               "trade quality for strict memory bounds; mini-batch\nis "
               "fast but noisier; online k-means is cheapest and worst.\n";
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pmkm

int main(int argc, char** argv) { return pmkm::bench::Main(argc, argv); }
