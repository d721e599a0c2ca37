// Per-operator execution accounting: the numbers behind EXPLAIN ANALYZE
// and the machine-readable run stats. Each physical operator instance owns
// one OperatorStats; only its executor thread writes it while running, and
// the executor copies it into Executor::operator_stats for after the join —
// so the fields need no atomics. It is the only place a run counter is
// tallied: the engine derives RunReport's retries, dropped chunks and
// partial Lloyd counts from these copies (stream/engine.cc).
//
// Header-only for the cluster layer: cluster/lloyd.h includes it for
// LloydCounters and links nothing of pmkm_obs.

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

/// What some k-means fits did: the raw counts behind the pruned passes'
/// scan fraction (survivors ÷ pruned_points) and distances per survivor
/// (survivor_distances ÷ survivors), and the empty-cluster repairs.
/// RunWeightedLloyd adds to one through LloydConfig::counters
/// (cluster/lloyd.h); an operator's lives in its OperatorStats.
struct LloydCounters {
  /// Points a pruned pass tested against their bounds.
  uint64_t pruned_points = 0;
  /// Of those, the points the bounds could not prove stable: scanned.
  uint64_t survivors = 0;
  /// Point-to-centroid distances the survivors' scans computed.
  uint64_t survivor_distances = 0;
  /// Starved centroids re-seeded to a donor cluster's farthest point: a
  /// quality signal, zero on a well-seeded fit.
  uint64_t empty_repairs = 0;

  LloydCounters& operator+=(const LloydCounters& other) {
    pruned_points += other.pruned_points;
    survivors += other.survivors;
    survivor_distances += other.survivor_distances;
    empty_repairs += other.empty_repairs;
    return *this;
  }
};

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
};

/// What one operator instance did during a run. Rows are the operator's
/// natural unit (points for scans and partial inputs, weighted centroids
/// for partial outputs and the merge); bytes count the payload doubles.
struct OperatorStats {
  std::string name;

  /// Distance kernel the operator's k-means fits ran on ("scalar" or
  /// "avx2"); empty for operators that do no clustering (scans).
  std::string kernel;

  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;

  /// Wall time of Run().
  double wall_seconds = 0.0;
  /// Thread-CPU time of Run(): actual compute, excluding blocked waits.
  double cpu_seconds = 0.0;
  /// Time this operator's thread was blocked in exchange-queue Push/Pop
  /// calls: on a full queue (back-pressure) or on an empty one whose
  /// producers are still live (starvation). The queue times each wait and
  /// adds it here (stream/queue.h); a call that does not block adds
  /// nothing, so uncontended lock acquisition is not counted.
  double queue_wait_seconds = 0.0;

  /// Lloyd iterations executed by this operator's k-means fits.
  uint64_t kmeans_iterations = 0;
  /// Seed-set restarts those fits ran: R per chunk of more than k points,
  /// 1 per merge of more than k centroids. A chunk or pool of at most k
  /// passes through without a fit and counts 0.
  uint64_t kmeans_restarts = 0;

  /// What those fits' pruned passes and empty-cluster repairs did. The
  /// partial and merge operators point their fits' LloydConfig::counters
  /// here, so every fit counts, a failed one included.
  LloydCounters lloyd;

  /// Retry grants absorbed (bucket re-reads, chunk re-computes).
  uint64_t retries = 0;
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
