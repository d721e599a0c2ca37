// Experiment F7 — reproduces Figure 7: minimum MSE vs number of data
// points per grid cell for serial, 5-chunk and 10-chunk partial/merge
// k-means (the paper's quality plot). Also prints SSE(raw), the same
// models evaluated on raw points.

#include <algorithm>
#include <iostream>

#include "bench/bench_util.h"

namespace pmkm {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  ExperimentGrid grid;
  grid.versions = 3;  // quality curves need averaging (merge-seed variance)
  FlagParser parser;
  grid.Register(&parser);
  const Status st = parser.Parse(argc, argv);
  if (st.IsCancelled()) return 0;
  PMKM_CHECK_OK(st);
  grid.Finalize();

  PrintBanner("Figure 7",
              "minimum MSE, serial vs partial/merge k-means", grid);
  std::cout << "        N |   serial MSE |  5-chunk MSE | 10-chunk MSE || "
               "serial raw |  5-chunk raw | 10-chunk raw\n";
  std::cout << "----------+--------------+--------------+--------------++-"
               "-----------+--------------+--------------\n";

  std::vector<int64_t> sizes = grid.sizes;
  std::sort(sizes.begin(), sizes.end());

  for (int64_t n : sizes) {
    std::vector<RunStats> serial, five, ten;
    for (int64_t v = 0; v < grid.versions; ++v) {
      const Dataset cell = MakeCell(n, grid, v);
      const uint64_t seed = 3000 + static_cast<uint64_t>(v);
      serial.push_back(RunSerial(cell, grid, seed));
      five.push_back(RunPartialMerge(cell, grid, 5, seed));
      ten.push_back(RunPartialMerge(cell, grid, 10, seed));
    }
    const RunStats s = Average(serial);
    const RunStats f = Average(five);
    const RunStats t = Average(ten);
    std::cout << FmtInt(n, 9) << " | " << Fmt(s.min_mse, 12) << " | "
              << Fmt(f.min_mse, 12) << " | " << Fmt(t.min_mse, 12)
              << " || " << Fmt(s.sse_raw, 10, 0) << " | "
              << Fmt(f.sse_raw, 12, 0) << " | " << Fmt(t.sse_raw, 12, 0)
              << "\n";
  }
  std::cout << "\nExpected shape (paper Fig. 7): for small N the serial "
               "MSE is comparable or\nbetter; from the break-even point "
               "(paper: N ≈ 12,500) the partial/merge error\nis clearly "
               "lower, and 10-chunk improves on 5-chunk as N grows.\n";
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pmkm

int main(int argc, char** argv) { return pmkm::bench::Main(argc, argv); }
