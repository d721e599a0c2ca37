// Experiment A6 — the "improved search mechanism" the paper deliberately
// skipped (§4): the Lloyd assignment step pruned by Hamerly's
// triangle-inequality bounds vs the plain full scan. Pruning is exact, so
// centroids, weights and SSE must match bit for bit; time is the payoff.
// Exits 1 on any mismatch.

#include <algorithm>
#include <cstring>
#include <iostream>

#include "bench/bench_util.h"
#include "common/stopwatch.h"

namespace pmkm {
namespace bench {
namespace {

bool SameBits(const double* a, const double* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

bool BitwiseEqual(const ClusteringModel& a, const ClusteringModel& b) {
  return a.centroids.values().size() == b.centroids.values().size() &&
         a.weights.size() == b.weights.size() &&
         SameBits(a.centroids.data(), b.centroids.data(),
                  a.centroids.values().size()) &&
         SameBits(a.weights.data(), b.weights.data(), a.weights.size()) &&
         SameBits(&a.sse, &b.sse, 1);
}

int Main(int argc, char** argv) {
  ExperimentGrid grid;
  FlagParser parser;
  grid.Register(&parser);
  const Status st = parser.Parse(argc, argv);
  if (st.IsCancelled()) return 0;
  PMKM_CHECK_OK(st);
  grid.Finalize();

  PrintBanner("Ablation A6",
              "plain Lloyd scan vs bound-pruned assignment (exact)", grid);
  std::cout << "        N |   scan(ms) | pruned(ms) | speed-up |   model\n";
  std::cout << "----------+------------+------------+----------+---------\n";

  bool all_match = true;
  std::vector<int64_t> sizes = grid.sizes;
  std::sort(sizes.begin(), sizes.end());
  for (int64_t n : sizes) {
    const Dataset cell = MakeCell(n, grid, 0);
    const WeightedDataset data = WeightedDataset::FromUnweighted(cell);
    Rng seed_rng(1234);
    auto seeds = SelectSeeds(data, static_cast<size_t>(grid.k),
                             SeedingMethod::kRandom, &seed_rng);
    PMKM_CHECK(seeds.ok()) << seeds.status();

    LloydConfig config;
    config.accelerate = false;
    Rng r1(1);
    const Stopwatch sw;
    auto scan = RunWeightedLloyd(data, *seeds, config, &r1);
    const double scan_ms = sw.ElapsedMillis();
    PMKM_CHECK(scan.ok());

    config.accelerate = true;
    Rng r2(1);
    const Stopwatch pw;
    auto pruned = RunWeightedLloyd(data, *seeds, config, &r2);
    const double pruned_ms = pw.ElapsedMillis();
    PMKM_CHECK(pruned.ok());

    const bool match = BitwiseEqual(*scan, *pruned);
    all_match = all_match && match;
    std::cout << FmtInt(n, 9) << " | " << Fmt(scan_ms, 10) << " | "
              << Fmt(pruned_ms, 10) << " | "
              << Fmt(scan_ms / std::max(pruned_ms, 1e-9), 7, 2) << "x | "
              << (match ? "bitwise" : "MISMATCH") << "\n";
  }
  std::cout << "\nReading: every row must read \"bitwise\" (pruning is "
               "exact); the speed-up grows\nwith N as clusters stabilize "
               "and most points keep their centroid.\n";
  return all_match ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace pmkm

int main(int argc, char** argv) { return pmkm::bench::Main(argc, argv); }
