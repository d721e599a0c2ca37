// Experiment A1 — seeding ablation for the merge step. The paper (§3.3)
// argues for seeding the merge k-means with the k HEAVIEST weighted
// centroids instead of random ones ("forces the algorithm to take into
// account which data points are likely to represent significant cluster
// centroids already"). This harness quantifies that design choice:
// heaviest-weight vs uniform-random vs k-means++ merge seeding, same
// partial outputs. The pool is built as the engine builds it (contiguous
// chunks of the shuffled cell, each fit by PartialKMeans under the
// operator's seed tag, pooled in partition order), and every variant
// fits that one pool: MergeKMeans for the paper's rule, KMeans for
// random seeds, FitKMeansPlusPlus for k-means++.

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/kmeans_plus_plus.h"
#include "cluster/merge.h"
#include "cluster/metrics.h"
#include "cluster/partial.h"
#include "common/stopwatch.h"
#include "data/slicing.h"

namespace pmkm {
namespace bench {
namespace {

// The merge operator's input for `cell` cut into `splits` contiguous
// chunks of ceil(N/splits) points: each chunk fit by PartialKMeans under
// the seed tag PartialKMeansOperator gives partition p of cell {0, 0},
// the results appended in partition order.
WeightedDataset PoolPartials(const Dataset& cell, int64_t splits,
                             const KMeansConfig& config) {
  const size_t chunk = (cell.size() + static_cast<size_t>(splits) - 1) /
                       static_cast<size_t>(splits);
  const PartialKMeans partial(config);
  WeightedDataset pool(cell.dim());
  for (uint64_t p = 0; p * chunk < cell.size(); ++p) {
    const size_t end = std::min(cell.size(), (p + 1) * chunk);
    auto result = partial.Cluster(SlicePoints(cell, p * chunk, end), p << 17);
    PMKM_CHECK(result.ok()) << result.status();
    pool.AppendAll(result->centroids);
  }
  return pool;
}

int Main(int argc, char** argv) {
  ExperimentGrid grid;
  int64_t n = 25000;
  int64_t splits = 10;
  FlagParser parser;
  grid.Register(&parser);
  parser.AddInt("n", &n, "cell size").AddInt("splits", &splits,
                                             "partition count p");
  const Status st = parser.Parse(argc, argv);
  if (st.IsCancelled()) return 0;
  PMKM_CHECK_OK(st);
  grid.Finalize();
  if (grid.quick) n = std::min<int64_t>(n, 5000);

  PrintBanner("Ablation A1",
              "merge-step seeding: heaviest-weight (paper) vs random vs "
              "k-means++", grid);

  enum class Seeding { kHeaviest, kRandom, kKMeansPlusPlus };
  struct Variant {
    const char* name;
    Seeding seeding;
    size_t restarts;
  };
  const Variant variants[] = {
      {"heaviest (paper)", Seeding::kHeaviest, 1},
      {"random, R=1", Seeding::kRandom, 1},
      {"random, R=10", Seeding::kRandom, 10},
      {"kmeans++, R=1", Seeding::kKMeansPlusPlus, 1},
  };

  KMeansConfig partial;
  partial.k = static_cast<size_t>(grid.k);
  partial.restarts = static_cast<size_t>(grid.restarts);
  partial.lloyd.accelerate = grid.accelerate;
  // Per version: the cell and the one pool every variant fits.
  std::vector<Dataset> cells;
  std::vector<WeightedDataset> pools;
  for (int64_t v = 0; v < grid.versions; ++v) {
    cells.push_back(MakeCell(n, grid, v));
    Dataset shuffled = cells.back();
    Rng rng(77 + static_cast<uint64_t>(v));
    ShufflePoints(&shuffled, &rng);
    partial.seed = 5000 + static_cast<uint64_t>(v);
    pools.push_back(PoolPartials(shuffled, splits, partial));
  }

  std::cout << " variant           |     E_pm     |   SSE(raw)   | merge "
               "iters | merge(ms)\n";
  std::cout << "-------------------+--------------+--------------+-------"
               "------+----------\n";
  for (const Variant& variant : variants) {
    double e_pm = 0.0, sse_raw = 0.0, iters = 0.0, ms = 0.0;
    for (int64_t v = 0; v < grid.versions; ++v) {
      const WeightedDataset& pool = pools[static_cast<size_t>(v)];
      const uint64_t seed = 99 + static_cast<uint64_t>(v);
      auto fit = [&]() -> Result<ClusteringModel> {
        switch (variant.seeding) {
          case Seeding::kHeaviest: {
            MergeKMeansConfig merge;
            merge.k = partial.k;
            merge.lloyd = partial.lloyd;
            return MergeKMeans(merge).Merge(pool);
          }
          case Seeding::kRandom: {
            KMeansConfig random = partial;
            random.restarts = variant.restarts;
            random.seed = seed;
            return KMeans(random).FitWeighted(pool);
          }
          case Seeding::kKMeansPlusPlus:
            return FitKMeansPlusPlus(pool, partial.k, variant.restarts, seed,
                                     partial.lloyd);
        }
        return Status::Internal("unknown seeding");
      };
      const Stopwatch watch;
      const Result<ClusteringModel> model = fit();
      ms += watch.ElapsedMillis();
      PMKM_CHECK(model.ok()) << model.status();
      e_pm += model->sse;
      sse_raw += Sse(model->centroids, cells[static_cast<size_t>(v)]);
      iters += static_cast<double>(model->iterations);
    }
    const double inv = 1.0 / static_cast<double>(grid.versions);
    std::string name = variant.name;
    name.resize(18, ' ');
    std::cout << name << "| " << Fmt(e_pm * inv, 12) << " | "
              << Fmt(sse_raw * inv, 12) << " | " << Fmt(iters * inv, 11, 1)
              << " | " << Fmt(ms * inv, 8, 2) << "\n";
  }
  std::cout << "\nReading: heaviest-weight seeding should match or beat "
               "single-shot random\nseeding at a fraction of the restarts "
               "(it is deterministic), supporting the\npaper's §3.3 design "
               "argument.\n";
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pmkm

int main(int argc, char** argv) { return pmkm::bench::Main(argc, argv); }
