// Experiment A5 — collective vs incremental merge (paper §3.3: "There are
// several options to perform this second merge k-means: a) incrementally,
// or b) collectively. From an information theoretic perspective, the
// second approach is able to generate a more faithful representation").
// This harness measures the claim: same partial centroid sets merged both
// ways, quality on E_pm-style error and on raw points, plus the memory
// the merge consumer must hold.

#include <algorithm>
#include <iostream>

#include "bench/bench_util.h"
#include "cluster/incremental_merge.h"
#include "cluster/metrics.h"
#include "cluster/partial.h"
#include "common/stopwatch.h"
#include "data/slicing.h"

namespace pmkm {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  ExperimentGrid grid;
  int64_t n = 25000;
  FlagParser parser;
  grid.Register(&parser);
  parser.AddInt("n", &n, "cell size");
  const Status st = parser.Parse(argc, argv);
  if (st.IsCancelled()) return 0;
  PMKM_CHECK_OK(st);
  grid.Finalize();
  if (grid.quick) n = std::min<int64_t>(n, 5000);
  const size_t k = static_cast<size_t>(grid.k);

  PrintBanner("Ablation A5",
              "collective vs incremental merge of partial results", grid);
  std::cout << "     p | merge       |   SSE(raw)   | merge state | "
               "merge(ms)\n";
  std::cout << "-------+-------------+--------------+-------------+------"
               "----\n";

  for (int64_t p : {5, 10, 20}) {
    double col_raw = 0.0, inc_raw = 0.0, col_ms = 0.0, inc_ms = 0.0;
    size_t col_state = 0, inc_state = 0;
    for (int64_t v = 0; v < grid.versions; ++v) {
      const Dataset cell = MakeCell(n, grid, v);
      Rng rng(500 + static_cast<uint64_t>(v));
      const std::vector<Dataset> chunks =
          SplitRandom(cell, static_cast<size_t>(p), &rng);
      KMeansConfig pconfig;
      pconfig.k = k;
      pconfig.restarts = static_cast<size_t>(grid.restarts);
      pconfig.seed = 800 + static_cast<uint64_t>(v);
      pconfig.lloyd.accelerate = grid.accelerate;
      const PartialKMeans partial(pconfig);
      std::vector<WeightedDataset> sets;
      for (size_t c = 0; c < chunks.size(); ++c) {
        auto result = partial.Cluster(chunks[c], c);
        PMKM_CHECK(result.ok()) << result.status();
        sets.push_back(std::move(result->centroids));
      }

      MergeKMeansConfig mconfig;
      mconfig.k = k;
      mconfig.lloyd.accelerate = grid.accelerate;
      {
        WeightedDataset pooled(cell.dim());
        for (const auto& s : sets) pooled.AppendAll(s);
        col_state = std::max(col_state, pooled.size());
        const Stopwatch watch;
        auto model = MergeKMeans(mconfig).Merge(pooled);
        PMKM_CHECK(model.ok()) << model.status();
        col_ms += watch.ElapsedMillis();
        col_raw += Sse(model->centroids, cell);
      }
      {
        IncrementalMergeKMeans inc(cell.dim(), mconfig);
        const Stopwatch watch;
        size_t peak = 0;
        for (const auto& s : sets) {
          PMKM_CHECK_OK(inc.Push(s));
          peak = std::max(peak, inc.running().size() + s.size());
        }
        auto model = inc.Finish();
        PMKM_CHECK(model.ok()) << model.status();
        inc_ms += watch.ElapsedMillis();
        inc_raw += Sse(model->centroids, cell);
        inc_state = std::max(inc_state, peak);
      }
    }
    const double inv = 1.0 / static_cast<double>(grid.versions);
    std::cout << FmtInt(p, 6) << " | collective  | "
              << Fmt(col_raw * inv, 12, 0) << " | "
              << FmtInt(static_cast<int64_t>(col_state), 11) << " | "
              << Fmt(col_ms * inv, 8, 2) << "\n";
    std::cout << FmtInt(p, 6) << " | incremental | "
              << Fmt(inc_raw * inv, 12, 0) << " | "
              << FmtInt(static_cast<int64_t>(inc_state), 11) << " | "
              << Fmt(inc_ms * inv, 8, 2) << "\n";
  }
  std::cout << "\nReading: the collective merge should match or beat the "
               "incremental one on raw\nerror (the paper's information-"
               "theoretic argument), while the incremental merge\nholds "
               "only O(k + k_p) centroids at a time ('merge state') "
               "instead of O(k*p).\n";
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pmkm

int main(int argc, char** argv) { return pmkm::bench::Main(argc, argv); }
