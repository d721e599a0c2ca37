// Algorithm comparison on one cell: serial k-means, partial/merge k-means,
// BIRCH, STREAM LocalSearch, mini-batch and online k-means side by side,
// with time, memory-model and quality columns.
//
//   $ ./build/examples/algorithm_comparison [--n=30000] [--k=40]

#include <cstdio>
#include <filesystem>
#include <iostream>

#include "baselines/birch.h"
#include "baselines/minibatch.h"
#include "baselines/online.h"
#include "baselines/stream_ls.h"
#include "cluster/metrics.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "data/generator.h"
#include "data/io.h"
#include "stream/engine.h"

namespace {

void PrintRow(const std::string& name, const std::string& memory,
              double ms, double sse, size_t k) {
  std::printf(" %-22s | %-18s | %9.1f | %12.0f | %3zu\n", name.c_str(),
              memory.c_str(), ms, sse, k);
}

}  // namespace

int main(int argc, char** argv) {
  int64_t n = 30000;
  int64_t k = 40;
  pmkm::FlagParser parser;
  parser.AddInt("n", &n, "points in the cell").AddInt("k", &k, "clusters");
  const pmkm::Status st = parser.Parse(argc, argv);
  if (st.IsCancelled()) return 0;
  if (!st.ok()) {
    std::cerr << st << "\n" << parser.Usage(argv[0]);
    return 1;
  }
  const size_t kk = static_cast<size_t>(k);

  pmkm::Rng rng(3);
  const pmkm::Dataset cell =
      pmkm::GenerateMisrLikeCell(static_cast<size_t>(n), &rng);
  std::cout << "cell: " << cell.size() << " x " << cell.dim()
            << ", k = " << kk << "\n\n";
  std::printf(" %-22s | %-18s | %9s | %12s | %3s\n", "algorithm",
              "working memory", "time(ms)", "SSE(raw)", "k");
  std::cout << "------------------------+--------------------+-----------+"
               "--------------+----\n";

  {
    pmkm::KMeansConfig config;
    config.k = kk;
    config.restarts = 5;
    const pmkm::Stopwatch watch;
    auto model = pmkm::KMeans(config).Fit(cell);
    PMKM_CHECK(model.ok()) << model.status();
    PrintRow("serial k-means", "O(N)", watch.ElapsedMillis(), model->sse,
             model->k());
  }
  {
    // Ten memory-sized chunks through the stream engine, which reads the
    // cell back from a bucket file (written before the clock starts).
    pmkm::KMeansConfig partial;
    partial.k = kk;
    partial.restarts = 5;
    pmkm::MergeKMeansConfig merge;
    merge.k = kk;
    const std::string path =
        (std::filesystem::temp_directory_path() / "pmkm_comparison.pmkb")
            .string();
    PMKM_CHECK_OK(pmkm::WriteGridBucket(path, {{0, 0}, cell}));
    const pmkm::Stopwatch watch;
    auto run = pmkm::PipelineBuilder()
                   .WithPartialKMeans(partial)
                   .WithMerge(merge)
                   .WithChunkPoints((cell.size() + 9) / 10)
                   .Run({path});
    const double ms = watch.ElapsedMillis();
    std::filesystem::remove(path);
    PMKM_CHECK(run.ok()) << run.status();
    const pmkm::ClusteringModel& model = run->cells.at({0, 0}).model;
    PrintRow("partial/merge (paper)", "O(N/p)", ms,
             pmkm::Sse(model.centroids, cell), model.k());
  }
  {
    pmkm::BirchConfig config;
    config.k = kk;
    config.max_leaf_entries = 4 * kk;
    config.global.restarts = 5;
    pmkm::Birch birch(cell.dim(), config);
    const pmkm::Stopwatch watch;
    PMKM_CHECK_OK(birch.InsertAll(cell));
    auto model = birch.Finish();
    PMKM_CHECK(model.ok()) << model.status();
    PrintRow("BIRCH", "O(CF-tree)", watch.ElapsedMillis(),
             pmkm::Sse(model->centroids, cell), model->k());
  }
  {
    pmkm::StreamLsConfig config;
    config.k = kk;
    config.chunk_points = static_cast<size_t>(n) / 10;
    pmkm::StreamLocalSearch stream(cell.dim(), config);
    const pmkm::Stopwatch watch;
    PMKM_CHECK_OK(stream.Append(cell));
    auto model = stream.Finish();
    PMKM_CHECK(model.ok()) << model.status();
    PrintRow("STREAM LocalSearch", "O(chunk + k log N)",
             watch.ElapsedMillis(), pmkm::Sse(model->centroids, cell),
             model->k());
  }
  {
    pmkm::MiniBatchConfig config;
    config.k = kk;
    const pmkm::Stopwatch watch;
    auto model = pmkm::MiniBatchKMeans(cell, config);
    PMKM_CHECK(model.ok()) << model.status();
    PrintRow("mini-batch k-means", "O(batch + k)",
             watch.ElapsedMillis(), model->sse, model->k());
  }
  {
    pmkm::OnlineKMeansConfig config;
    config.k = kk;
    pmkm::OnlineKMeans online(cell.dim(), config);
    const pmkm::Stopwatch watch;
    PMKM_CHECK_OK(online.ObserveAll(cell));
    const double ms = watch.ElapsedMillis();
    auto model = online.Snapshot(&cell);
    PMKM_CHECK(model.ok()) << model.status();
    PrintRow("online k-means", "O(k)", ms, model->sse, model->k());
  }

  std::cout << "\nSSE(raw): total squared distance of every cell point to "
               "its nearest center\n(lower is better). Memory column: "
               "state the algorithm must keep resident.\n";
  return 0;
}
