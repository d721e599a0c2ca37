// Per-operator execution accounting: the numbers behind EXPLAIN ANALYZE
// and the machine-readable run stats. Each physical operator instance owns
// one OperatorStats; only its executor thread writes it while running, and
// the executor publishes a copy into the ExecutorReport after the join —
// so the fields need no atomics.

#ifndef PMKM_OBS_STATS_H_
#define PMKM_OBS_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"

namespace pmkm {

class MetricsRegistry;
class TraceRecorder;

namespace obs {
class RunBoard;
}  // namespace obs

/// Optional observability sinks threaded through a pipeline run. All
/// pointers may be null (the default): a disabled pipeline pays one
/// pointer test per potential record and nothing else. Set them through
/// PipelineBuilder::WithMetrics()/WithTrace()/WithDebugServer()/
/// WithRunId() (stream/engine.h), which own the sink wiring.
struct ObsContext {
  MetricsRegistry* metrics = nullptr;
  TraceRecorder* trace = nullptr;
  /// Live run state served by the debug server's /statusz and /runz
  /// (obs/runboard.h); operators publish their stats into it per work
  /// unit. Null unless a debug server is attached.
  obs::RunBoard* board = nullptr;
  /// Identity tag for this run. Empty = the engine generates one; it ends
  /// up in log lines, the metrics export, the trace file and the
  /// checkpoint journal so artifacts of one run correlate.
  std::string run_id;

  bool enabled() const {
    return metrics != nullptr || trace != nullptr || board != nullptr;
  }
};

/// What one operator instance did during a run. Rows are the operator's
/// natural unit (points for scans and partial inputs, weighted centroids
/// for partial outputs and the merge); bytes count the payload doubles.
struct OperatorStats {
  std::string name;

  /// Distance kernel the operator's k-means fits ran on ("scalar",
  /// "avx2", "neon"); empty for operators that do no clustering (scans).
  std::string kernel;

  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;

  /// Wall time of Run() (summed across executor restarts).
  double wall_seconds = 0.0;
  /// Thread-CPU time of Run(): actual compute, excluding blocked waits.
  double cpu_seconds = 0.0;
  /// Time spent inside queue Push/Pop calls (back-pressure + starvation).
  double queue_wait_seconds = 0.0;

  /// Lloyd iterations executed by this operator's k-means fits.
  uint64_t kmeans_iterations = 0;
  /// Seed-set restarts those fits ran (R per chunk/merge).
  uint64_t kmeans_restarts = 0;

  /// Retry grants absorbed (bucket re-reads, chunk re-computes).
  uint64_t retries = 0;
  /// Executor-level operator restarts (FailurePolicy::kRetryOperator).
  uint64_t restarts = 0;
  /// Work items abandoned (quarantined buckets, dropped chunks,
  /// skipped cells).
  uint64_t items_dropped = 0;

  /// Accumulates `other` into this (used to aggregate partial clones);
  /// keeps this->name.
  void MergeFrom(const OperatorStats& other);

  /// One-line "rows=... wall=..." rendering used by EXPLAIN ANALYZE.
  std::string ToString() const;

  JsonValue ToJson() const;

  /// Publishes the scalar fields as counters "op.<name>.<field>" into a
  /// registry (called once per run, after the pipeline joins).
  void ExportTo(MetricsRegistry* registry) const;
};

/// End-of-run snapshot of one exchange queue.
struct QueueStatsSnapshot {
  std::string name;         // "points" | "centroids"
  size_t capacity = 0;
  size_t high_water_mark = 0;
  uint64_t total_pushed = 0;
};

/// Helpers shared by EXPLAIN ANALYZE and the inspect tool.
std::string FormatBytes(uint64_t bytes);
std::string FormatSeconds(double seconds);

}  // namespace pmkm

#endif  // PMKM_OBS_STATS_H_
