#include "bench/bench_util.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "cluster/metrics.h"
#include "common/stopwatch.h"
#include "obs/json.h"
#include "stream/engine.h"

namespace pmkm {
namespace bench {

void ExperimentGrid::Register(FlagParser* parser) {
  parser->AddInt("k", &k, "number of clusters (paper: 40)")
      .AddInt("restarts", &restarts, "random seed sets R (paper: 10)")
      .AddInt("versions", &versions,
              "independent data versions per size (paper: 5)")
      .AddInt("max-n", &max_n, "drop sweep sizes above this (0 = keep all)")
      .AddBool("quick", &quick,
               "fast sanity configuration (small sizes, R=3, 1 version)")
      .AddBool("accelerate", &accelerate,
               "bound-pruned assignment step; exact, 0 = the paper's full "
               "scan");
}

void ExperimentGrid::Finalize() {
  if (quick) {
    sizes = {250, 2500, 12500};
    restarts = std::min<int64_t>(restarts, 3);
    versions = 1;
  }
  if (max_n > 0) {
    std::erase_if(sizes, [&](int64_t n) { return n > max_n; });
  }
}

Dataset MakeCell(int64_t n, const ExperimentGrid& grid, int64_t version) {
  // One master stream per (size, version): every algorithm sees the exact
  // same cell, like the paper's shared on-disk grid buckets.
  Rng rng(grid.data_seed ^ (static_cast<uint64_t>(n) * 0x51ed2701u) ^
          (static_cast<uint64_t>(version) << 32));
  MisrCellSpec spec;
  spec.dim = static_cast<size_t>(grid.dim);
  return GenerateMisrLikeCell(static_cast<size_t>(n), &rng, spec);
}

RunStats RunSerial(const Dataset& cell, const ExperimentGrid& grid,
                   uint64_t seed) {
  KMeansConfig config;
  config.k = static_cast<size_t>(grid.k);
  config.restarts = static_cast<size_t>(grid.restarts);
  config.seed = seed;
  config.lloyd.accelerate = grid.accelerate;
  const Stopwatch watch;
  auto model = KMeans(config).Fit(cell);
  PMKM_CHECK(model.ok()) << model.status();
  RunStats stats;
  stats.total_ms = watch.ElapsedMillis();
  stats.min_mse = model->sse;
  stats.sse_raw = model->sse;
  stats.iterations = static_cast<double>(model->iterations);
  return stats;
}

ClusteringModel RunOnEngine(Dataset cell, size_t splits,
                            const KMeansConfig& partial,
                            const MergeKMeansConfig& merge,
                            RunStats* stats) {
  PMKM_CHECK(splits >= 1 && !cell.empty());
  const size_t chunk = (cell.size() + splits - 1) / splits;
  ResourceModel one_machine;
  one_machine.cores = 1;
  auto run = PipelineBuilder()
                 .WithPartialKMeans(partial)
                 .WithMerge(merge)
                 .WithResources(one_machine)
                 .WithChunkPoints(chunk)
                 .RunInMemory({GridBucket{GridCellId{0, 0}, std::move(cell)}});
  PMKM_CHECK(run.ok()) << run.status();
  CellClustering& result = run->cells.at(GridCellId{0, 0});
  stats->partial_ms = 0.0;
  for (const OperatorStats& op : run->operator_stats) {
    if (op.name.starts_with("partial-kmeans")) {
      stats->partial_ms += op.cpu_seconds * 1e3;
    }
  }
  stats->merge_ms = result.merge_seconds * 1e3;
  stats->total_ms = run->wall_seconds * 1e3;
  return std::move(result.model);
}

RunStats RunPartialMerge(const Dataset& cell, const ExperimentGrid& grid,
                         size_t splits, uint64_t seed,
                         ClusteringModel* model) {
  KMeansConfig partial;
  partial.k = static_cast<size_t>(grid.k);
  partial.restarts = static_cast<size_t>(grid.restarts);
  partial.seed = seed;
  partial.lloyd.accelerate = grid.accelerate;
  MergeKMeansConfig merge;
  merge.k = partial.k;
  merge.lloyd.accelerate = grid.accelerate;
  Dataset shuffled = cell;  // randomly distributed chunks (paper §5.1)
  Rng rng(seed ^ 0xabcdef);
  shuffled.Shuffle(&rng);
  RunStats stats;
  ClusteringModel merged =
      RunOnEngine(std::move(shuffled), splits, partial, merge, &stats);
  stats.min_mse = merged.sse;  // E_pm
  stats.sse_raw = Sse(merged.centroids, cell);
  stats.iterations = static_cast<double>(merged.iterations);
  if (model != nullptr) *model = std::move(merged);
  return stats;
}

RunStats Average(const std::vector<RunStats>& runs) {
  RunStats avg;
  if (runs.empty()) return avg;
  for (const RunStats& r : runs) {
    avg.partial_ms += r.partial_ms;
    avg.merge_ms += r.merge_ms;
    avg.total_ms += r.total_ms;
    avg.min_mse += r.min_mse;
    avg.sse_raw += r.sse_raw;
    avg.iterations += r.iterations;
  }
  const double n = static_cast<double>(runs.size());
  avg.partial_ms /= n;
  avg.merge_ms /= n;
  avg.total_ms /= n;
  avg.min_mse /= n;
  avg.sse_raw /= n;
  avg.iterations /= n;
  return avg;
}

std::string Fmt(double v, int width, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%*.*f", width, precision, v);
  return buf;
}

std::string FmtInt(int64_t v, int width) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%*lld", width,
                static_cast<long long>(v));
  return buf;
}

void PrintBanner(const std::string& experiment_id,
                 const std::string& description,
                 const ExperimentGrid& grid) {
  std::cout << "==========================================================="
               "=====================\n";
  std::cout << experiment_id << ": " << description << "\n";
  std::cout << "Nittel, Leung & Braverman, \"Scaling Clustering Algorithms "
               "for Massive Data\n"
               "Sets using Data Streams\" — k=" << grid.k
            << ", R=" << grid.restarts << ", D=" << grid.dim
            << ", versions=" << grid.versions
            << ", accelerate=" << (grid.accelerate ? 1 : 0) << "\n";
  std::cout << "==========================================================="
               "=====================\n";
}

Status WriteBenchJson(const std::string& path,
                      const std::string& benchmark,
                      const RunStats& stats) {
  JsonValue doc = JsonValue::Object();
  if (std::ifstream in(path); in) {
    std::ostringstream buf;
    buf << in.rdbuf();
    // A missing or unparseable file just starts a fresh document.
    if (auto parsed = JsonValue::Parse(buf.str());
        parsed.ok() && parsed->is_object()) {
      doc = std::move(parsed).value();
    }
  }
  JsonValue entry = JsonValue::Object();
  entry.Set("wall_s", stats.total_ms * 1e-3);
  entry.Set("t_partial_s", stats.partial_ms * 1e-3);
  entry.Set("t_merge_s", stats.merge_ms * 1e-3);
  entry.Set("min_mse", stats.min_mse);
  doc.Set(benchmark, std::move(entry));
  std::ofstream out(path, std::ios::trunc);
  out << doc.Dump(2) << "\n";
  if (!out.good()) return Status::IOError("cannot write " + path);
  return Status::OK();
}

}  // namespace bench
}  // namespace pmkm
