// Experiment T2 — reproduces the paper's Table 2: serial vs 5-split vs
// 10-split partial/merge k-means across cell sizes. Columns match the
// paper: t_{C0-Ci} (partial phase), t_merge, Min MSE, overall t — plus
// SSE(raw), our extra apples-to-apples quality column. Partial/merge rows
// run on the stream engine with one partial clone (bench_util.h,
// RunOnEngine), so every column is measured on the code that ships.

#include <algorithm>
#include <iostream>

#include "bench/bench_util.h"

namespace pmkm {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  ExperimentGrid grid;
  FlagParser parser;
  grid.Register(&parser);
  const Status st = parser.Parse(argc, argv);
  if (st.IsCancelled()) return 0;
  PMKM_CHECK_OK(st);
  grid.Finalize();

  PrintBanner("Table 2",
              "serial vs partial/merge k-means (5-/10-split), per-cell "
              "times and errors", grid);
  std::cout << " data pts | case    | t C0-Ci(ms) |  t merge(ms) |     Min "
               "MSE |     SSE(raw) | overall t(ms)\n";
  std::cout << "----------+---------+-------------+--------------+---------"
               "-----+--------------+--------------\n";

  // The paper lists sizes descending; follow suit.
  std::vector<int64_t> sizes = grid.sizes;
  std::sort(sizes.rbegin(), sizes.rend());

  struct Case {
    const char* name;
    size_t splits;  // 0 = serial
  };
  const Case cases[] = {{"10split", 10}, {"5split", 5}, {"serial", 0}};

  for (int64_t n : sizes) {
    for (const Case& c : cases) {
      std::vector<RunStats> runs;
      for (int64_t v = 0; v < grid.versions; ++v) {
        const Dataset cell = MakeCell(n, grid, v);
        const uint64_t seed = 1000 + static_cast<uint64_t>(v);
        if (c.splits == 0) {
          runs.push_back(RunSerial(cell, grid, seed));
        } else {
          runs.push_back(RunPartialMerge(cell, grid, c.splits, seed));
        }
      }
      const RunStats avg = Average(runs);
      std::cout << FmtInt(n, 9) << " | " << c.name
                << std::string(7 - std::string(c.name).size(), ' ')
                << " | " << (c.splits == 0 ? Fmt(0.0, 11)
                                           : Fmt(avg.partial_ms, 11))
                << " | " << (c.splits == 0 ? Fmt(0.0, 12)
                                           : Fmt(avg.merge_ms, 12))
                << " | " << Fmt(avg.min_mse, 12) << " | "
                << Fmt(avg.sse_raw, 12) << " | " << Fmt(avg.total_ms, 12)
                << "\n";
    }
    std::cout << "----------+---------+-------------+--------------+-------"
                 "-------+--------------+--------------\n";
  }
  std::cout << "Min MSE: serial = E over raw points; splits = E_pm over "
               "pooled weighted centroids\n(the paper's Table 2 metric). "
               "SSE(raw) evaluates every model on the raw points.\n";
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pmkm

int main(int argc, char** argv) { return pmkm::bench::Main(argc, argv); }
