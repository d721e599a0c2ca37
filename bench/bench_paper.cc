// Experiments T2, F6, F7 and F8 — the paper's Table 2 and Figures 6-8
// (§5). All four come from one sweep: for each cell size and data
// version, serial k-means and 5- and 10-split partial/merge k-means run
// once on the same cell with the same seed. The four reports are views of
// that sweep's RunStats:
//  - Table 2: t_{C0-Ci} (partial phase), t_merge, Min MSE, overall t, plus
//    SSE(raw), our extra apples-to-apples quality column;
//  - Figure 6: overall execution time vs N;
//  - Figure 7: minimum MSE vs N (and SSE(raw));
//  - Figure 8: partial-phase time, 5-split vs 10-split.
// Partial/merge runs go through the stream engine with one partial clone
// (bench_util.h, RunOnEngine), so every column is measured on the code
// that ships.

#include <algorithm>
#include <iostream>

#include "bench/bench_util.h"
#include "cluster/kernels/kernel.h"

namespace pmkm {
namespace bench {
namespace {

// One cell size of the sweep, each algorithm averaged over the versions.
struct SweepRow {
  int64_t n = 0;
  RunStats serial, five, ten;
};

std::vector<SweepRow> RunSweep(const ExperimentGrid& grid) {
  std::vector<int64_t> sizes = grid.sizes;
  std::sort(sizes.begin(), sizes.end());
  std::vector<SweepRow> rows;
  for (int64_t n : sizes) {
    std::vector<RunStats> serial, five, ten;
    for (int64_t v = 0; v < grid.versions; ++v) {
      const Dataset cell = MakeCell(n, grid, v);
      const uint64_t seed = 1000 + static_cast<uint64_t>(v);
      serial.push_back(RunSerial(cell, grid, seed));
      five.push_back(RunPartialMerge(cell, grid, 5, seed));
      ten.push_back(RunPartialMerge(cell, grid, 10, seed));
    }
    rows.push_back({n, Average(serial), Average(five), Average(ten)});
  }
  return rows;
}

void PrintTable2(const std::vector<SweepRow>& rows,
                 const ExperimentGrid& grid) {
  PrintBanner("Table 2",
              "serial vs partial/merge k-means (5-/10-split), per-cell "
              "times and errors", grid);
  std::cout << " data pts | case    | t C0-Ci(ms) |  t merge(ms) |     Min "
               "MSE |     SSE(raw) | overall t(ms)\n";
  std::cout << "----------+---------+-------------+--------------+---------"
               "-----+--------------+--------------\n";
  // The paper lists sizes descending; follow suit.
  for (auto row = rows.rbegin(); row != rows.rend(); ++row) {
    const std::pair<const char*, const RunStats*> cases[] = {
        {"10split", &row->ten}, {"5split", &row->five},
        {"serial", &row->serial}};
    for (const auto& [name, stats] : cases) {
      std::cout << FmtInt(row->n, 9) << " | " << name
                << std::string(7 - std::string(name).size(), ' ') << " | "
                << Fmt(stats->partial_ms, 11) << " | "
                << Fmt(stats->merge_ms, 12) << " | "
                << Fmt(stats->min_mse, 12) << " | "
                << Fmt(stats->sse_raw, 12) << " | "
                << Fmt(stats->total_ms, 12) << "\n";
    }
    std::cout << "----------+---------+-------------+--------------+-------"
                 "-------+--------------+--------------\n";
  }
  std::cout << "Min MSE: serial = E over raw points; splits = E_pm over "
               "pooled weighted centroids\n(the paper's Table 2 metric). "
               "SSE(raw) evaluates every model on the raw points.\n\n";
}

void PrintFig6(const std::vector<SweepRow>& rows,
               const ExperimentGrid& grid) {
  PrintBanner("Figure 6",
              "overall execution time, serial vs partial/merge k-means",
              grid);
  std::cout << "kernel: " << GetKernel(KernelKind::kAuto).name()
            << " (host " << HostIsaDescription() << ")\n";
  std::cout << "        N |   serial(ms) |  5-chunk(ms) | 10-chunk(ms) | "
               "serial/10-chunk\n";
  std::cout << "----------+--------------+--------------+--------------+-"
               "---------------\n";
  for (const SweepRow& row : rows) {
    std::cout << FmtInt(row.n, 9) << " | " << Fmt(row.serial.total_ms, 12)
              << " | " << Fmt(row.five.total_ms, 12) << " | "
              << Fmt(row.ten.total_ms, 12) << " | "
              << Fmt(row.serial.total_ms / std::max(row.ten.total_ms, 1e-9),
                     10, 2)
              << "x\n";
  }
  std::cout << "\nExpected shape (paper Fig. 6): the serial curve grows "
               "super-linearly in N while\nboth partial/merge curves stay "
               "far flatter; the gap widens with N.\n\n";
}

void PrintFig7(const std::vector<SweepRow>& rows,
               const ExperimentGrid& grid) {
  PrintBanner("Figure 7",
              "minimum MSE, serial vs partial/merge k-means", grid);
  std::cout << "        N |   serial MSE |  5-chunk MSE | 10-chunk MSE || "
               "serial raw |  5-chunk raw | 10-chunk raw\n";
  std::cout << "----------+--------------+--------------+--------------++-"
               "-----------+--------------+--------------\n";
  for (const SweepRow& row : rows) {
    std::cout << FmtInt(row.n, 9) << " | " << Fmt(row.serial.min_mse, 12)
              << " | " << Fmt(row.five.min_mse, 12) << " | "
              << Fmt(row.ten.min_mse, 12) << " || "
              << Fmt(row.serial.sse_raw, 10, 0) << " | "
              << Fmt(row.five.sse_raw, 12, 0) << " | "
              << Fmt(row.ten.sse_raw, 12, 0) << "\n";
  }
  std::cout << "\nExpected shape (paper Fig. 7): for small N the serial "
               "MSE is comparable or\nbetter; from the break-even point "
               "(paper: N ≈ 12,500) the partial/merge error\nis clearly "
               "lower, and 10-chunk improves on 5-chunk as N grows.\n\n";
}

void PrintFig8(const std::vector<SweepRow>& rows,
               const ExperimentGrid& grid) {
  PrintBanner("Figure 8",
              "partial k-means phase time, 5-split vs 10-split", grid);
  std::cout << "        N |  5-split partial(ms) | 10-split partial(ms) | "
               "5/10 ratio\n";
  std::cout << "----------+----------------------+----------------------+-"
               "----------\n";
  for (const SweepRow& row : rows) {
    std::cout << FmtInt(row.n, 9) << " | " << Fmt(row.five.partial_ms, 20)
              << " | " << Fmt(row.ten.partial_ms, 20) << " | "
              << Fmt(row.five.partial_ms /
                         std::max(row.ten.partial_ms, 1e-9),
                     9, 2)
              << "x\n";
  }
  std::cout << "\nExpected shape (paper Fig. 8): smaller partitions "
               "converge in fewer iterations,\nso the 10-split partial "
               "phase is substantially cheaper than the 5-split phase\n"
               "even though both process the same N points — the gap grows "
               "with N.\n";
}

int Main(int argc, char** argv) {
  ExperimentGrid grid;
  FlagParser parser;
  grid.Register(&parser);
  const Status st = parser.Parse(argc, argv);
  if (st.IsCancelled()) return 0;
  PMKM_CHECK_OK(st);
  grid.Finalize();

  const std::vector<SweepRow> rows = RunSweep(grid);
  PrintTable2(rows, grid);
  PrintFig6(rows, grid);
  PrintFig7(rows, grid);
  PrintFig8(rows, grid);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pmkm

int main(int argc, char** argv) { return pmkm::bench::Main(argc, argv); }
