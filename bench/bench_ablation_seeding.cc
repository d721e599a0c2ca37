// Experiment A1 — seeding ablation for the merge step. The paper (§3.3)
// argues for seeding the merge k-means with the k HEAVIEST weighted
// centroids instead of random ones ("forces the algorithm to take into
// account which data points are likely to represent significant cluster
// centroids already"). This harness quantifies that design choice:
// heaviest-weight vs uniform-random vs k-means++ merge seeding, same
// partial outputs.

#include <iostream>

#include "bench/bench_util.h"
#include "cluster/metrics.h"
#include "data/slicing.h"

namespace pmkm {
namespace bench {
namespace {

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

  struct Variant {
    const char* name;
    SeedingMethod method;
    size_t restarts;
  };
  const Variant variants[] = {
      {"heaviest (paper)", SeedingMethod::kHeaviestWeight, 1},
      {"random, R=1", SeedingMethod::kRandom, 1},
      {"random, R=10", SeedingMethod::kRandom, 10},
      {"kmeans++, R=1", SeedingMethod::kKMeansPlusPlus, 1},
  };

  std::cout << " variant           |     E_pm     |   SSE(raw)   | merge "
               "iters | merge(ms)\n";
  std::cout << "-------------------+--------------+--------------+-------"
               "------+----------\n";
  for (const Variant& variant : variants) {
    double e_pm = 0.0, sse_raw = 0.0, iters = 0.0, ms = 0.0;
    for (int64_t v = 0; v < grid.versions; ++v) {
      const Dataset cell = MakeCell(n, grid, v);
      KMeansConfig partial;
      partial.k = static_cast<size_t>(grid.k);
      partial.restarts = static_cast<size_t>(grid.restarts);
      partial.seed = 5000 + static_cast<uint64_t>(v);
      partial.lloyd.accelerate = grid.accelerate;
      MergeKMeansConfig merge;
      merge.k = partial.k;
      merge.lloyd.accelerate = grid.accelerate;
      merge.seeding = variant.method;
      merge.restarts = variant.restarts;
      merge.seed = 99 + static_cast<uint64_t>(v);
      Dataset shuffled = cell;
      Rng rng(77 + static_cast<uint64_t>(v));
      ShufflePoints(&shuffled, &rng);
      RunStats stats;
      const ClusteringModel model =
          RunOnEngine(std::move(shuffled), static_cast<size_t>(splits),
                      partial, merge, &stats);
      e_pm += model.sse;
      sse_raw += Sse(model.centroids, cell);
      iters += static_cast<double>(model.iterations);
      ms += stats.merge_ms;
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
