// Quickstart: cluster one grid cell with partial/merge k-means.
//
//   $ ./build/examples/quickstart [--n=20000] [--k=40] [--splits=10]
//
// Generates a MISR-like 6-attribute cell, clusters it with the paper's
// algorithm on the stream engine (partial k-means per memory-sized chunk,
// weighted merge), and prints the quality/time summary plus the heaviest
// centroids.

#include <algorithm>
#include <iostream>
#include <numeric>

#include "cluster/metrics.h"
#include "common/flags.h"
#include "data/generator.h"
#include "stream/engine.h"

int main(int argc, char** argv) {
  int64_t n = 20000;
  int64_t k = 40;
  int64_t splits = 10;
  int64_t restarts = 10;
  pmkm::FlagParser parser;
  parser.AddInt("n", &n, "points in the cell")
      .AddInt("k", &k, "clusters")
      .AddInt("splits", &splits, "memory-sized partitions")
      .AddInt("restarts", &restarts, "random seed sets per partition");
  const pmkm::Status st = parser.Parse(argc, argv);
  if (st.IsCancelled()) return 0;
  if (!st.ok()) {
    std::cerr << st << "\n" << parser.Usage(argv[0]);
    return 1;
  }

  // 1. A synthetic 1°×1° cell: N points, 6 correlated radiance-like
  //    attributes (what one MISR grid bucket looks like).
  pmkm::Rng rng(7);
  const pmkm::Dataset cell =
      pmkm::GenerateMisrLikeCell(static_cast<size_t>(n), &rng);
  std::cout << "cell: " << cell.size() << " points x " << cell.dim()
            << " attributes\n";

  // 2. Run the paper's algorithm: k-means on each of `splits` chunks
  //    (best of R restarts), then a weighted merge seeded from the
  //    heaviest centroids. The generated points arrive in random order,
  //    so consecutive chunks are the paper's randomly distributed ones.
  pmkm::KMeansConfig partial;
  partial.k = static_cast<size_t>(k);
  partial.restarts = static_cast<size_t>(restarts);
  pmkm::MergeKMeansConfig merge;
  merge.k = partial.k;
  const size_t parts = static_cast<size_t>(std::max<int64_t>(1, splits));
  const pmkm::GridCellId id{0, 0};

  auto run = pmkm::PipelineBuilder()
                 .WithPartialKMeans(partial)
                 .WithMerge(merge)
                 .WithChunkPoints((cell.size() + parts - 1) / parts)
                 .RunInMemory({pmkm::GridBucket{id, cell}});
  if (!run.ok()) {
    std::cerr << "clustering failed: " << run.status() << "\n";
    return 1;
  }

  // 3. Inspect the model.
  const pmkm::CellClustering& result = run->cells.at(id);
  const pmkm::ClusteringModel& model = result.model;
  std::cout << "k = " << model.k() << " centroids from "
            << result.pooled_centroids << " pooled partial centroids\n";
  std::cout << "run: " << run->wall_seconds * 1e3 << " ms on "
            << run->plan.partial_clones << " partial clone(s), merge: "
            << result.merge_seconds * 1e3 << " ms\n";
  std::cout << "E_pm (merge objective)  = " << model.sse << "\n";
  std::cout << "SSE on raw points       = "
            << pmkm::Sse(model.centroids, cell) << "\n";
  std::cout << "mean sq. error / point  = "
            << pmkm::MsePerPoint(model.centroids, cell) << "\n";

  // 4. The five heaviest clusters (most of the cell's mass).
  std::vector<size_t> order(model.k());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return model.weights[a] > model.weights[b];
  });
  std::cout << "\nheaviest clusters:\n";
  for (size_t i = 0; i < std::min<size_t>(5, order.size()); ++i) {
    const size_t j = order[i];
    std::cout << "  #" << j << " weight=" << model.weights[j]
              << " centroid=[";
    for (size_t d = 0; d < model.dim(); ++d) {
      std::cout << (d > 0 ? ", " : "") << model.centroids(j, d);
    }
    std::cout << "]\n";
  }

  // 5. Classify a new measurement against the model.
  const pmkm::Dataset probe = pmkm::GenerateMisrLikeCell(1, &rng);
  std::cout << "\nnew point assigned to cluster "
            << model.Predict(probe.Row(0)) << "\n";
  return 0;
}
