// Concrete operators of the partial/merge k-means query plan (paper Fig. 5):
// scan → cloned partial k-means → merge k-means.
//
// Resilience: each operator honors its FailurePolicy (operator.h). The scan
// retries transient bucket-read failures with deterministic backoff and,
// under kSkipAndContinue, quarantines corrupt buckets (emitting a dropped
// marker so the merge discards any partitions already streamed). Partial
// operators retry failed chunks and can drop them; the merge tolerates
// incomplete cells at end-of-stream when configured, recording them as
// skipped instead of failing the run.

#ifndef PMKM_STREAM_OPS_H_
#define PMKM_STREAM_OPS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/merge.h"
#include "cluster/partial.h"
#include "common/retry.h"
#include "data/io.h"
#include "stream/message.h"
#include "stream/operator.h"
#include "stream/queue.h"

namespace pmkm {

class CheckpointWriter;  // stream/checkpoint.h

using PointChunkQueue = BoundedBlockingQueue<PointChunk>;
using CentroidQueue = BoundedBlockingQueue<CentroidMessage>;

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
/// operator).
///
/// Failure handling by policy:
///   kFailFast        — first read error aborts the scan (legacy).
///   kRetryOperator   — the scan is restartable: it resumes from its last
///                      completed bucket/partition when the executor
///                      restarts it (already-emitted partitions are never
///                      re-emitted).
///   kSkipAndContinue — read errors are retried per `retry` policy, then
///                      the bucket is quarantined and scanning continues.
class ScanOperator : public Operator {
 public:
  /// `paths`: bucket files to scan. `chunk_points`: partition size N' (> 0).
  /// The operator registers itself as a producer of `out` at construction.
  /// `retry` governs per-bucket re-reads under kSkipAndContinue.
  ScanOperator(std::vector<std::string> paths, size_t chunk_points,
               std::shared_ptr<PointChunkQueue> out,
               RetryPolicy retry = RetryPolicy{});

  Status Run() override;
  void Abort() override;
  bool SupportsRestart() const override { return true; }
  Status PrepareRestart() override { return Status::OK(); }
  void Finish() override;

  size_t chunks_emitted() const { return chunks_emitted_; }

  /// Buckets quarantined under kSkipAndContinue.
  const std::vector<QuarantinedBucket>& quarantined() const {
    return quarantined_;
  }

  /// Read retries absorbed (per-bucket Retrier grants).
  size_t io_retries() const { return io_retries_; }

 private:
  // Emits one bucket, resuming past partitions_emitted_ already-pushed
  // partitions (used both for in-bucket retry and executor restarts).
  Status EmitBucketOnce(const std::string& path);
  Status EmitBucketWithRetry(const std::string& path);
  void CloseOutputOnce();

  std::vector<std::string> paths_;
  size_t chunk_points_;
  std::shared_ptr<PointChunkQueue> out_;
  RetryPolicy retry_;
  size_t chunks_emitted_ = 0;
  size_t io_retries_ = 0;
  bool output_closed_ = false;

  // Resume state (survives Run() attempts for restartable execution).
  size_t bucket_index_ = 0;
  uint32_t partitions_emitted_ = 0;
  GridCellId current_cell_;
  bool cell_known_ = false;

  std::vector<QuarantinedBucket> quarantined_;
};

/// In-memory scan: partitions already-materialized cells (used by tests and
/// by experiments that pre-generate cells). Same chunking contract as
/// ScanOperator.
class MemoryScanOperator : public Operator {
 public:
  MemoryScanOperator(std::vector<GridBucket> cells, size_t chunk_points,
                     std::shared_ptr<PointChunkQueue> out);

  Status Run() override;
  void Abort() override;

 private:
  std::vector<GridBucket> cells_;
  size_t chunk_points_;
  std::shared_ptr<PointChunkQueue> out_;
};

/// Partial k-means operator: one clone. Pops point chunks, clusters them,
/// pushes weighted centroid messages. Instantiate several with the same
/// queues to clone (paper §3.4 option 1).
///
/// Failure handling by policy: under kRetryOperator and kSkipAndContinue a
/// failed chunk is retried per `retry`; if retries are exhausted,
/// kSkipAndContinue drops the chunk (emitting a quarantine marker so the
/// merge discards the whole cell) while kRetryOperator fails the pipeline.
/// Fault sites: "op.partial" (error before clustering a chunk), "op.stall"
/// (cancellable stall, for watchdog tests).
class PartialKMeansOperator : public Operator {
 public:
  PartialKMeansOperator(const KMeansConfig& config,
                        std::shared_ptr<PointChunkQueue> in,
                        std::shared_ptr<CentroidQueue> out,
                        std::string name = "partial-kmeans",
                        RetryPolicy retry = RetryPolicy{});

  Status Run() override;
  void Finish() override;
  void Abort() override;

  size_t chunks_processed() const { return chunks_processed_; }

  /// Chunks dropped (cell quarantined) under kSkipAndContinue.
  size_t chunks_dropped() const { return chunks_dropped_; }

 private:
  PartialKMeans partial_;
  std::shared_ptr<PointChunkQueue> in_;
  std::shared_ptr<CentroidQueue> out_;
  RetryPolicy retry_;
  size_t chunks_processed_ = 0;
  size_t chunks_dropped_ = 0;
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
/// With `allow_incomplete` (graceful-degradation mode) cells that are still
/// incomplete at end-of-stream — or explicitly dropped upstream — are
/// recorded in skipped_cells() instead of failing the run.
class MergeKMeansOperator : public Operator {
 public:
  MergeKMeansOperator(const MergeKMeansConfig& config,
                      std::shared_ptr<CentroidQueue> in,
                      bool allow_incomplete = false);

  Status Run() override;
  void Abort() override;

  const std::map<GridCellId, CellClustering>& results() const {
    return results_;
  }

  /// Cells discarded in degradation mode, with a human-readable reason.
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
  Status MergeCell(GridCellId cell);

  MergeKMeans merger_;
  std::shared_ptr<CentroidQueue> in_;
  bool allow_incomplete_;
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
