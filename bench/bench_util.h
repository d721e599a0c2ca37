// Shared support for the experiment harnesses that regenerate the paper's
// Table 2 and Figures 6-8, plus the ablation and baseline studies.
//
// Metric convention (matches the paper, see EXPERIMENTS.md):
//  - serial "Min MSE"       = E  = Σ ‖x − c(x)‖² over the raw cell points,
//    minimized over R restarts.
//  - partial/merge "Min MSE" = E_pm = Σ w_i ‖c_i − µ(c_i)‖² over the pooled
//    weighted centroids (the merge operator's objective).
// We additionally report SSE(raw): the merged centroids evaluated on the
// original points, an apples-to-apples quality number the paper does not
// print.

#ifndef PMKM_BENCH_BENCH_UTIL_H_
#define PMKM_BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "cluster/kmeans.h"
#include "cluster/merge.h"
#include "common/flags.h"
#include "data/generator.h"

namespace pmkm {
namespace bench {

/// The paper's experiment grid (§5.1): cell sizes swept, D = 6, k = 40,
/// R = 10 seed sets, 5- and 10-way splits, 5 data versions per size.
struct ExperimentGrid {
  std::vector<int64_t> sizes{250, 2500, 12500, 25000, 50000, 75000};
  int64_t k = 40;
  int64_t restarts = 10;
  int64_t versions = 3;      // independent cells per configuration
  int64_t dim = 6;
  uint64_t data_seed = 2004; // ICDE 2004 ;-)

  /// LloydConfig::accelerate for RunSerial/RunPartialMerge. The result is
  /// identical either way; --accelerate=0 times the paper's unoptimised
  /// assignment scan.
  bool accelerate = true;

  /// Registers --k/--restarts/--versions/--max-n/--quick/--accelerate.
  void Register(FlagParser* parser);

  /// Applies --quick / --max-n adjustments after parsing.
  void Finalize();

  bool quick = false;
  int64_t max_n = 0;  // 0 = keep all sizes
};

/// Measured outcome of one algorithm on one cell.
struct RunStats {
  double partial_ms = 0.0;  // t_{C0-Ci} (0 for serial)
  double merge_ms = 0.0;    // t_merge   (0 for serial)
  double total_ms = 0.0;    // overall t
  double min_mse = 0.0;     // the paper's metric (see header comment)
  double sse_raw = 0.0;     // merged/serial centroids evaluated on raw data
  double iterations = 0.0;
};

/// Serial k-means baseline with R restarts (paper §5.1 "serial" rows).
RunStats RunSerial(const Dataset& cell, const ExperimentGrid& grid,
                   uint64_t seed);

/// Partial/merge k-means of one cell on the stream engine
/// (PipelineBuilder::RunInMemory) with one partial clone — the paper's
/// single-machine rows. The cell is cut into `splits` chunks of
/// ceil(N/splits) points in the order given, so the caller's point order
/// is the slicing strategy. Fills the time columns of `*stats` from the
/// run itself (partial_ms: the clones' CPU time, t_{C0-Ci}; merge_ms:
/// the cell's merge time; total_ms: the run's wall time) and returns the
/// merged model.
ClusteringModel RunOnEngine(Dataset cell, size_t splits,
                            const KMeansConfig& partial,
                            const MergeKMeansConfig& merge, RunStats* stats);

/// Partial/merge k-means with the given split count, run with the paper's
/// configuration (R restarts per partition, heaviest-weight merge seeding)
/// over randomly distributed chunks. The merged model is also stored in
/// `*model` when given.
RunStats RunPartialMerge(const Dataset& cell, const ExperimentGrid& grid,
                         size_t splits, uint64_t seed,
                         ClusteringModel* model = nullptr);

/// Averages stats over several runs.
RunStats Average(const std::vector<RunStats>& runs);

/// Generates version `v` of the N-point MISR-like benchmark cell.
Dataset MakeCell(int64_t n, const ExperimentGrid& grid, int64_t version);

/// Fixed-width cell for table output.
std::string Fmt(double v, int width = 12, int precision = 1);
std::string FmtInt(int64_t v, int width = 8);

/// Prints the standard harness banner.
void PrintBanner(const std::string& experiment_id,
                 const std::string& description,
                 const ExperimentGrid& grid);

/// Machine-readable results: merges `benchmark` →
/// {wall_s, t_partial_s, t_merge_s, min_mse} into the JSON object stored
/// at `path` (read-modify-rewrite, so several harnesses invoked with the
/// same --json_out accumulate into one file, e.g. BENCH_stream.json).
Status WriteBenchJson(const std::string& path,
                      const std::string& benchmark, const RunStats& stats);

}  // namespace bench
}  // namespace pmkm

#endif  // PMKM_BENCH_BENCH_UTIL_H_
