// Experiment A4 — the motivating application (paper §1): compressing grid
// cells into multivariate histograms via clustering. Sweeps the bucket
// count k for compression ratio vs reconstruction fidelity, then sweeps
// the ECVQ rate penalty λ to demonstrate the paper's §3.3 proposal of
// choosing k on the fly.

#include <algorithm>
#include <iostream>

#include "bench/bench_util.h"
#include "histogram/ecvq.h"
#include "histogram/histogram.h"

namespace pmkm {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  ExperimentGrid grid;
  int64_t n = 20000;  // "a typical 1°×1° MISR cell contains about 20,000
                      // data points per grid cell" (paper §5.1)
  FlagParser parser;
  grid.Register(&parser);
  parser.AddInt("n", &n, "cell size");
  const Status st = parser.Parse(argc, argv);
  if (st.IsCancelled()) return 0;
  PMKM_CHECK_OK(st);
  grid.Finalize();
  if (grid.quick) n = std::min<int64_t>(n, 5000);

  PrintBanner("Histogram A4",
              "multivariate histogram compression of a MISR-like cell",
              grid);
  const Dataset cell = MakeCell(n, grid, 0);

  std::cout << "Bucket-count sweep (partial/merge 10-split clustering, "
               "N=" << n << "):\n";
  std::cout << "    k | buckets | compression | recon MSE/pt |  "
               "cluster(ms)\n";
  std::cout << "------+---------+-------------+--------------+------------"
               "\n";
  for (int64_t k : {10, 20, 40, 80}) {
    ExperimentGrid kgrid = grid;
    kgrid.k = k;
    ClusteringModel model;
    const RunStats stats = RunPartialMerge(cell, kgrid, 10, 1, &model);
    auto hist = MultivariateHistogram::Build(model, cell);
    PMKM_CHECK(hist.ok()) << hist.status();
    std::cout << FmtInt(k, 5) << " | "
              << FmtInt(static_cast<int64_t>(hist->num_buckets()), 7)
              << " | " << Fmt(hist->CompressionRatio(cell.size()), 10, 1)
              << "x | " << Fmt(hist->ReconstructionMse(cell), 12, 3)
              << " | " << Fmt(stats.total_ms, 10)
              << "\n";
  }

  std::cout << "\nECVQ rate-penalty sweep (max_k=80): adaptive k per cell "
               "(paper §3.3 remarks):\n";
  std::cout << "   lambda | effective k | rate(bits/pt) | distortion/pt\n";
  std::cout << "----------+-------------+---------------+---------------\n";
  for (double lambda : {0.0, 1.0, 10.0, 100.0, 1000.0, 10000.0}) {
    EcvqConfig config;
    config.max_k = 80;
    config.lambda = lambda;
    auto result = FitEcvq(cell, config);
    PMKM_CHECK(result.ok()) << result.status();
    std::cout << Fmt(lambda, 9, 1) << " | "
              << FmtInt(static_cast<int64_t>(result->effective_k), 11)
              << " | " << Fmt(result->rate_bits, 13, 3) << " | "
              << Fmt(result->distortion / static_cast<double>(n), 13, 3)
              << "\n";
  }
  std::cout << "\nReading: compression ratio falls ~linearly in k while "
               "reconstruction error\nimproves with diminishing returns; "
               "raising lambda starves unpopular codewords,\nshrinking the "
               "effective k (lower rate, higher distortion) — the "
               "rate-distortion\ntrade-off ECVQ manages automatically.\n";
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pmkm

int main(int argc, char** argv) { return pmkm::bench::Main(argc, argv); }
