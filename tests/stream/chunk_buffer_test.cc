// The run recycles chunk storage: the scan reads every chunk into a buffer
// from the run's free list, and each partial clone gives it back after the
// fit. So a run allocates at most as many chunk buffers as chunks can be
// alive at once (a full points queue, one per clone, and the scan's), not
// one per chunk.
//
// Counted from the outside: this binary replaces the global operator new
// and counts the allocations of at least one chunk's bytes while a run is
// in flight.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>

#include "data/generator.h"
#include "stream/engine.h"
#include "tests/bucket_files.h"

namespace {

// Allocations of at least this many bytes are counted; the maximum turns
// counting off.
std::atomic<size_t> g_count_from{std::numeric_limits<size_t>::max()};
std::atomic<size_t> g_counted{0};

}  // namespace

void* operator new(size_t size) {
  if (size >= g_count_from.load(std::memory_order_relaxed)) {
    g_counted.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// The pair frees what the operator new above mallocs, which GCC's
// new/delete matching cannot see across the replacement.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace pmkm {
namespace {

TEST(ChunkBufferTest, ScanAllocatesAtMostTheLiveChunkBuffers) {
  constexpr size_t kCells = 64;
  constexpr size_t kChunkPoints = 400;
  BucketFiles files;
  std::vector<std::string> paths;
  Rng rng(3);
  for (size_t c = 0; c < kCells; ++c) {
    GridBucket bucket;
    bucket.cell = GridCellId{static_cast<int32_t>(c), 1};
    bucket.points = GenerateMisrLikeCell(3 * kChunkPoints, &rng);
    paths.push_back(files.Write(bucket));
  }
  const size_t dim = 6;  // GenerateMisrLikeCell's D
  KMeansConfig partial;
  partial.k = 4;
  partial.restarts = 1;
  MergeKMeansConfig merge;
  merge.k = 4;
  ResourceModel resources;
  resources.cores = 4;
  resources.memory_bytes_per_operator = dim * sizeof(double) * 4 *
                                        kChunkPoints;  // 400-point chunks
  const PipelineBuilder builder = PipelineBuilder()
                                      .WithPartialKMeans(partial)
                                      .WithMerge(merge)
                                      .WithResources(resources);

  g_counted.store(0);
  g_count_from.store(kChunkPoints * dim * sizeof(double));
  auto run = builder.Run(paths);
  g_count_from.store(std::numeric_limits<size_t>::max());
  ASSERT_TRUE(run.ok()) << run.status();

  const PhysicalPlan& plan = run->plan;
  ASSERT_EQ(plan.chunk_points, kChunkPoints);
  EXPECT_EQ(plan.partial_clones, 4u);
  EXPECT_EQ(run->cells.size(), kCells);
  // 192 chunks streamed through at most this many buffers.
  EXPECT_LE(g_counted.load(), plan.queue_capacity + plan.partial_clones + 1);
  EXPECT_GE(g_counted.load(), 1u);
}

}  // namespace
}  // namespace pmkm
