// Concrete operators of the partial/merge k-means query plan (paper Fig. 5):
// scan → cloned partial k-means → merge k-means.
//
// Resilience: the scan retries a failed bucket read and a partial clone a
// failed chunk fit, in place with deterministic backoff, as often as the
// run's retry budget allows (none by default). Then each operator applies
// its FailurePolicy (operator.h): kFailFast returns the error, and under
// kSkipAndContinue the scan quarantines the bucket (emitting a dropped
// marker so the merge discards any partitions already streamed), a
// partial clone drops the chunk, and the merge skips a cell whose merge
// fails or that is incomplete at end-of-stream, recording it instead of
// failing the run.
//
// Accounting: each operator counts what it did (rows, retries, dropped
// units, its fits' LloydCounters) only into its OperatorStats
// (obs/stats.h); the run report is derived from those. Queue waits are
// the queues' to time: every Push and Pop passes the operator's
// queue_wait_seconds, and the queue adds the time the call blocked.

#ifndef PMKM_STREAM_OPS_H_
#define PMKM_STREAM_OPS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/merge.h"
#include "cluster/partial.h"
#include "common/annotations.h"
#include "common/retry.h"
#include "data/io.h"
#include "stream/message.h"
#include "stream/operator.h"
#include "stream/queue.h"

namespace pmkm {

class CheckpointWriter;  // stream/checkpoint.h

using PointChunkQueue = BoundedBlockingQueue<PointChunk>;
using CentroidQueue = BoundedBlockingQueue<CentroidMessage>;

/// The run's free list of chunk storage. The scan reads each chunk into a
/// buffer taken here, and the partial clone that fits the chunk gives the
/// buffer back, so the chunk buffers a run allocates are bounded by the
/// chunks alive at once, not by the chunks it streams.
class ChunkBufferPool {
 public:
  /// Allocates `capacity` buffers, each with room for `points` points of
  /// `dim` coordinates, on the calling thread. The free list never holds
  /// more than `capacity` buffers and frees any beyond that.
  ChunkBufferPool(size_t capacity, size_t dim, size_t points);

  /// A free buffer, or an empty one when none is free (a reader sizes
  /// it).
  Dataset Take() PMKM_EXCLUDES(mu_);

  /// Returns a buffer's storage to the free list (a buffer without
  /// storage is not kept).
  void Give(Dataset buffer) PMKM_EXCLUDES(mu_);

 private:
  const size_t capacity_;
  Mutex mu_;
  std::vector<Dataset> free_ PMKM_GUARDED_BY(mu_);
};

/// A bucket the scan gave up on: skipped, logged, and recorded here.
struct QuarantinedBucket {
  std::string path;
  GridCellId cell;
  bool cell_known = false;  // false if the failure preceded the header
  Status error;
};

/// Scan operator: streams grid-bucket files chunk-by-chunk into the point
/// queue, honoring the one-look constraint (each bucket is read exactly
/// once, `chunk_points` rows at a time — the memory budget of a partial
/// operator). It is the engine's only scan: tools, daemon, tests and
/// experiments all hand the engine bucket files.
///
/// A failed bucket read is retried per `retry`, resuming past the
/// partitions already emitted (they are never re-emitted). Once the
/// retries are spent:
///   kFailFast        — the error aborts the scan.
///   kSkipAndContinue — the bucket is quarantined and scanning continues.
class ScanOperator : public Operator {
 public:
  /// `paths`: bucket files to scan. `chunk_points`: partition size N' (> 0),
  /// planned for buckets of dimensionality `dim`. A bucket fails with
  /// InvalidArgument (not retryable, so `skip` quarantines it) when its D
  /// differs from `dim`, when it holds no points, or when an earlier entry
  /// of `paths` holds the same cell (a path listed twice included).
  /// The operator registers itself as a producer of `out` at construction.
  /// Each chunk is read into a buffer taken from `buffers`. `retry` governs
  /// per-bucket re-reads.
  ScanOperator(std::vector<std::string> paths, size_t chunk_points,
               size_t dim, std::shared_ptr<PointChunkQueue> out,
               std::shared_ptr<ChunkBufferPool> buffers,
               RetryPolicy retry = RetryPolicy{});

  Status Run() override;
  void Abort() override;
  void Finish() override;

  /// Buckets quarantined under kSkipAndContinue.
  const std::vector<QuarantinedBucket>& quarantined() const {
    return quarantined_;
  }

 private:
  // Emits paths_[index], resuming past partitions_emitted_ already-pushed
  // partitions (a retry of the bucket).
  Status EmitBucketOnce(size_t index);
  Status EmitBucketWithRetry(size_t index);
  void CloseOutputOnce();

  std::vector<std::string> paths_;
  size_t chunk_points_;
  size_t dim_;
  std::shared_ptr<PointChunkQueue> out_;
  std::shared_ptr<ChunkBufferPool> buffers_;
  RetryPolicy retry_;
  bool output_closed_ = false;

  // State of the current bucket, kept across its read attempts.
  uint32_t partitions_emitted_ = 0;
  GridCellId current_cell_;
  bool cell_known_ = false;

  // Each cell's first entry in paths_. Keyed on list position, so a retry
  // of one bucket is not a duplicate but the same path listed twice is.
  std::map<GridCellId, size_t> first_entry_;

  std::vector<QuarantinedBucket> quarantined_;
};

/// Partial k-means operator: one clone. Pops point chunks, clusters them,
/// pushes weighted centroid messages. Instantiate several with the same
/// queues to clone (paper §3.4 option 1). Each chunk's storage goes back
/// to `buffers` once its fit is done, whether the fit succeeded or not.
///
/// A failed chunk fit is retried per `retry`; once retries are exhausted,
/// kSkipAndContinue drops the chunk (emitting a quarantine marker so the
/// merge discards the whole cell) while kFailFast fails the pipeline.
/// Fault sites: "op.partial" (error before clustering a chunk), "op.stall"
/// (cancellable stall, for deadline and cancel tests).
class PartialKMeansOperator : public Operator {
 public:
  PartialKMeansOperator(const KMeansConfig& config,
                        std::shared_ptr<PointChunkQueue> in,
                        std::shared_ptr<ChunkBufferPool> buffers,
                        std::shared_ptr<CentroidQueue> out,
                        std::string name = "partial-kmeans",
                        RetryPolicy retry = RetryPolicy{});

  Status Run() override;
  void Finish() override;
  void Abort() override;

 private:
  PartialKMeans partial_;
  std::shared_ptr<PointChunkQueue> in_;
  std::shared_ptr<ChunkBufferPool> buffers_;
  std::shared_ptr<CentroidQueue> out_;
  RetryPolicy retry_;
};

/// Final clustering of one grid cell, produced by the merge operator.
struct CellClustering {
  GridCellId cell;
  ClusteringModel model;
  size_t pooled_centroids = 0;
  size_t input_points = 0;
  double merge_seconds = 0.0;
};

/// Merge k-means operator: the consumer root of the plan. Buffers weighted
/// centroids per cell; when a cell's partitions are complete, runs the
/// collective merge. Results are available via results() after the pipeline
/// finishes.
///
/// A cell dropped upstream is always recorded in skipped_cells(). Under
/// kSkipAndContinue so is a cell whose merge fails, whose partitions are
/// inconsistent or duplicated, or that is incomplete at end-of-stream; the
/// merge then keeps draining its input. kFailFast fails the run on
/// those.
class MergeKMeansOperator : public Operator {
 public:
  MergeKMeansOperator(const MergeKMeansConfig& config,
                      std::shared_ptr<CentroidQueue> in);

  Status Run() override;
  void Abort() override;

  const std::map<GridCellId, CellClustering>& results() const {
    return results_;
  }

  /// Cells discarded (dropped upstream, or failed under
  /// kSkipAndContinue), with a human-readable reason.
  const std::map<GridCellId, std::string>& skipped_cells() const {
    return skipped_;
  }

  /// Attaches a checkpoint writer: every completed cell is journaled
  /// before it is published into results(). Null (the default) disables
  /// checkpointing. Must be set before the executor starts.
  void set_checkpoint(CheckpointWriter* checkpoint) {
    checkpoint_ = checkpoint;
  }

  /// True if a checkpoint append failed mid-run and checkpointing was
  /// disabled for the rest of the run (non-failfast policies only).
  bool checkpoint_failed() const { return checkpoint_failed_; }

 private:
  // Buffers one partition and merges its cell once complete. Every error
  // is about that one cell.
  Status AddPartition(CentroidMessage* msg);
  Status MergeCell(GridCellId cell);
  // Discards everything about `cell`, even a clustering that already
  // completed, and records why. Once per cell: Run drops every later
  // message of a skipped cell.
  void SkipCell(GridCellId cell, std::string reason);

  MergeKMeans merger_;
  std::shared_ptr<CentroidQueue> in_;
  CheckpointWriter* checkpoint_ = nullptr;
  bool checkpoint_failed_ = false;

  // Arrived centroid sets are buffered per partition id and pooled in
  // ascending id order at merge time, so the result is independent of the
  // arrival interleaving produced by cloned partial operators.
  struct PendingCell {
    std::map<uint32_t, WeightedDataset> parts;
    uint32_t expected = 0;
    size_t input_points = 0;
    size_t dim = 1;
    bool initialized = false;
  };
  std::map<GridCellId, PendingCell> pending_;
  std::map<GridCellId, CellClustering> results_;
  std::map<GridCellId, std::string> skipped_;
};

}  // namespace pmkm

#endif  // PMKM_STREAM_OPS_H_
