// Adaptive-k compression (paper §3.3 remarks): instead of one fixed k per
// cell, each partition is quantized with ECVQ under a rate penalty λ, so
// the codebook size adapts to the partition's complexity; the weighted
// codewords are then merged as usual. Compares against the fixed-k
// pipeline at equal (resulting) bucket budgets and reports cluster
// validity indices.
//
//   $ ./build/examples/adaptive_compression [--n=20000] [--lambda=50]

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "cluster/merge.h"
#include "cluster/metrics.h"
#include "cluster/validity.h"
#include "common/flags.h"
#include "data/generator.h"
#include "histogram/ecvq.h"
#include "histogram/histogram.h"
#include "stream/engine.h"

int main(int argc, char** argv) {
  int64_t n = 20000;
  int64_t max_k = 64;
  double lambda = 50.0;
  int64_t splits = 10;
  pmkm::FlagParser parser;
  parser.AddInt("n", &n, "points in the cell")
      .AddInt("max-k", &max_k, "ECVQ codebook ceiling per partition")
      .AddDouble("lambda", &lambda, "ECVQ rate penalty")
      .AddInt("splits", &splits, "partitions");
  const pmkm::Status st = parser.Parse(argc, argv);
  if (st.IsCancelled()) return 0;
  if (!st.ok()) {
    std::cerr << st << "\n" << parser.Usage(argv[0]);
    return 1;
  }

  pmkm::Rng rng(21);
  const pmkm::Dataset cell =
      pmkm::GenerateMisrLikeCell(static_cast<size_t>(n), &rng);
  std::cout << "cell: " << cell.size() << " x " << cell.dim() << "\n\n";

  // --- Adaptive pipeline ------------------------------------------------
  // The cell is cut into --splits consecutive slices, the same chunking
  // the engine applies. Each slice is quantized with ECVQ, its surviving
  // codewords are pooled, and the merge runs at the largest effective k.
  const size_t parts = static_cast<size_t>(std::max<int64_t>(1, splits));
  const size_t chunk = (cell.size() + parts - 1) / parts;
  pmkm::EcvqConfig ecvq;
  ecvq.max_k = static_cast<size_t>(std::max<int64_t>(0, max_k));
  ecvq.lambda = lambda;
  pmkm::WeightedDataset pooled(cell.dim());
  size_t max_effective_k = 1;
  std::cout << "adaptive (ECVQ, lambda=" << lambda << ", max_k=" << max_k
            << "):\n  per-partition effective k:";
  for (size_t begin = 0; begin < cell.size(); begin += chunk) {
    auto partial = pmkm::FitEcvq(
        cell.Slice(begin, std::min(cell.size(), begin + chunk)), ecvq);
    if (!partial.ok()) {
      std::cerr << partial.status() << "\n";
      return 1;
    }
    std::cout << " " << partial->effective_k;
    max_effective_k = std::max(max_effective_k, partial->effective_k);
    const pmkm::ClusteringModel& codebook = partial->model;
    for (size_t j = 0; j < codebook.k(); ++j) {
      if (codebook.weights[j] > 0.0) {
        pooled.Append(codebook.centroids.Row(j), codebook.weights[j]);
      }
    }
  }
  pmkm::MergeKMeansConfig adaptive_merge;
  adaptive_merge.k = max_effective_k;
  auto adaptive = pmkm::MergeKMeans(adaptive_merge).Merge(pooled);
  if (!adaptive.ok()) {
    std::cerr << adaptive.status() << "\n";
    return 1;
  }
  std::cout << "\n  final k = " << adaptive->k() << " (from "
            << pooled.size() << " pooled codewords)\n";

  // --- Fixed-k pipeline at the same final k, on the stream engine ------
  pmkm::KMeansConfig partial;
  partial.k = adaptive->k();
  partial.restarts = 5;
  pmkm::MergeKMeansConfig merge;
  merge.k = partial.k;
  auto fixed = pmkm::PipelineBuilder()
                   .WithPartialKMeans(partial)
                   .WithMerge(merge)
                   .WithChunkPoints(chunk)
                   .RunInMemory({pmkm::GridBucket{{0, 0}, cell}});
  if (!fixed.ok()) {
    std::cerr << fixed.status() << "\n";
    return 1;
  }

  auto report = [&](const char* name, const pmkm::ClusteringModel& model) {
    auto hist = pmkm::MultivariateHistogram::Build(model, cell);
    PMKM_CHECK(hist.ok()) << hist.status();
    auto sil = pmkm::SilhouetteScore(model, cell);
    auto db = pmkm::DaviesBouldinIndex(model, cell);
    std::printf(
        "  %-10s k=%-3zu SSE(raw)=%-12.0f recon-MSE=%-8.3f ratio=%-7.1f "
        "silhouette=%-6.3f DB=%-6.3f\n",
        name, model.k(), pmkm::Sse(model.centroids, cell),
        hist->ReconstructionMse(cell), hist->CompressionRatio(cell.size()),
        sil.ok() ? *sil : -9.0, db.ok() ? *db : -9.0);
  };
  std::cout << "\ncomparison at equal final k:\n";
  report("adaptive", *adaptive);
  report("fixed-k", fixed->cells.at({0, 0}).model);

  std::cout << "\nThe adaptive pipeline discovers the bucket budget from "
               "the data (small or\nsimple partitions emit fewer "
               "codewords), which is the paper's proposed answer\nto "
               "\"which is the best choice of k depending on the "
               "partition size\".\n";
  return 0;
}
