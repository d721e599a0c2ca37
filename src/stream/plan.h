// Logical → physical planning for the partial/merge query.
//
// Mirrors the paper's §3.4: "the parallelization of the operators is
// performed automatically during query optimization when the logical data
// streaming query is compiled into a query execution plan". The planner
// turns a resource model (RAM budget per operator, cores) into the two
// physical knobs: the partition size N' (chunks must fit in volatile
// memory) and the number of partial-operator clones.
//
// Execution is supervised (see operator.h): a StreamExecOptions chooses the
// failure policy, retry budget and run deadline, and every run returns a
// RunReport describing what was retried, quarantined, or skipped.

#ifndef PMKM_STREAM_PLAN_H_
#define PMKM_STREAM_PLAN_H_

#include <atomic>
#include <map>
#include <string>
#include <vector>

#include "obs/stats.h"
#include "stream/ops.h"

namespace pmkm {

/// Available computing resources, as the optimizer sees them.
struct ResourceModel {
  /// Volatile memory one partial operator may use for its state.
  size_t memory_bytes_per_operator = 16ULL << 20;  // 16 MiB

  /// Worker cores available for cloned operators: one partial clone runs
  /// per core, up to the run's chunk count (0 = the CPUs the calling
  /// thread may run on: its affinity mask, as `taskset` sets it).
  size_t cores = 0;

  size_t EffectiveCores() const;
};

/// The physical plan the optimizer chose.
struct PhysicalPlan {
  size_t chunk_points = 0;     // partition size N'
  size_t partial_clones = 1;   // cloned partial operators
  size_t queue_capacity = 4;   // smart-queue depth (back-pressure bound)
};

/// Chooses the physical plan for clustering `cells` buckets of
/// dimensionality `dim` and about `expected_points_per_cell` points each.
/// `chunk_points` forces the partition size N'; 0 derives it from the
/// memory budget. The k-means working set per point is roughly point +
/// assignment + shares of the sums array; a conservative factor of 4 over
/// raw point bytes keeps a clone inside its budget. The plan runs one
/// partial clone per core, but never more clones than the run has chunks
/// (estimated as one cell's chunk count times `cells`, saturating): a
/// clone fits any cell's chunks, so many small cells keep every core busy.
/// The scan and merge threads mostly block on their queues and get no core
/// of their own. The clone count and queue capacity always follow from the
/// chosen N'.
PhysicalPlan PlanPartialMerge(size_t dim, size_t expected_points_per_cell,
                              size_t cells, const ResourceModel& resources,
                              size_t chunk_points = 0);

/// The run's chunk count when each of `cells` cells holds
/// `points_per_cell` points and a chunk holds `chunk_points` (> 0);
/// saturates at SIZE_MAX.
size_t EstimateRunChunks(size_t points_per_cell, size_t cells,
                         size_t chunk_points);

/// The planner's exchange-depth rule. Depth scales with the clone count
/// (one chunk buffered per clone; the chunk a clone is fitting has already
/// left the queue) but is capped so the buffered chunks stay inside the
/// per-operator memory budget:
///
///   cap = max(2, min(clones, clones * memory_bytes / chunk_bytes))
///
/// with chunk_bytes = chunk_points * dim * sizeof(double).
size_t PlanQueueCapacity(size_t partial_clones, size_t chunk_points,
                         size_t dim, size_t memory_bytes_per_operator);

/// How a streamed run deals with failures.
struct StreamExecOptions {
  FailurePolicy failure_policy = FailurePolicy::kFailFast;

  /// Run deadline: the executor aborts the pipeline and the run returns
  /// Status::DeadlineExceeded once this many milliseconds have passed
  /// since the executor started, within one chunk fit or cell merge.
  /// 0 = none.
  uint64_t deadline_ms = 0;

  /// The one retry budget: retry/backoff for each failed bucket read and
  /// partial chunk fit, under every failure policy. The default makes one
  /// attempt: no retries.
  RetryPolicy io_retry;

  /// Observability sinks, wired by PipelineBuilder::WithMetrics/WithTrace/
  /// WithDebugServer/WithRunId. All null (default) for a fully
  /// uninstrumented run.
  ObsContext obs;

  /// Cancellation token (nullable). Once the pointed-at flag is true,
  /// the executor aborts the pipeline and the run returns
  /// Status::Cancelled within one chunk fit or cell merge, under every
  /// failure policy. The flag's owner must outlive the run.
  /// ClusterService::CancelJob (serve/service.h) flips it.
  const std::atomic<bool>* cancel = nullptr;
};

/// One quarantined cell/bucket in the run report.
struct QuarantinedCellReport {
  std::string path;  // bucket file, empty when only the cell is known
  GridCellId cell;
  bool cell_known = false;  // false if the bucket died before its header
  std::string reason;
};

/// Per-run resilience accounting, surfaced by tools/pmkm_cluster. Its
/// counters are derived from the operators' OperatorStats, never tallied
/// a second time.
struct RunReport {
  FailurePolicy failure_policy = FailurePolicy::kFailFast;
  size_t cells_clustered = 0;
  std::vector<QuarantinedCellReport> quarantined;
  size_t io_retries = 0;         // the scan's retries
  size_t chunks_dropped = 0;     // the partial clones' items_dropped

  /// The partial clones' OperatorStats::lloyd, summed: the scan fraction is
  /// survivors ÷ pruned_points (partial.scan_frac), survivor_distances ÷
  /// survivors the distances per survivor, and empty_repairs the starved
  /// centroids re-seeded (partial.empty_repairs).
  LloydCounters partial_lloyd;

  // Checkpoint/resume accounting (all zero/false for uncheckpointed runs).
  size_t cells_resumed = 0;      // cells restored from the journal
  size_t checkpoint_cells = 0;   // cell records journaled by this run
  uint64_t checkpoint_epoch = 0; // journal epoch after the run
  /// Recovery discarded a torn/corrupt journal tail before resuming.
  bool checkpoint_torn_tail = false;
  /// Checkpointing failed to open or died mid-run; the run finished but
  /// its progress is not (fully) durable.
  bool checkpoint_degraded = false;
  /// True when the run finished but lost data (quarantined buckets,
  /// dropped chunks or skipped cells): results cover only the healthy
  /// subset.
  bool degraded = false;

  /// One-paragraph human-readable summary.
  std::string Summary() const;
};

/// Outcome of a streamed partial/merge run over many cells.
struct StreamRunResult {
  std::map<GridCellId, CellClustering> cells;
  PhysicalPlan plan;
  double wall_seconds = 0.0;
  /// Identity of this run: every artifact the run produced (log lines,
  /// metrics export, trace file, checkpoint journal) carries the same id.
  std::string run_id;
  RunReport report;
  /// Per-operator execution accounting (one entry per operator instance,
  /// partial clones separate), in executor order: scan, partials, merge.
  std::vector<OperatorStats> operator_stats;
  /// Exchange accounting: the points and centroids queues.
  std::vector<QueueStatsSnapshot> queues;
};

}  // namespace pmkm

#endif  // PMKM_STREAM_PLAN_H_
