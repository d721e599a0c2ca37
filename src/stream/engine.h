// The engine API: one options struct and one builder for the paper's
// partial/merge streaming pipeline (scan → cloned partial k-means →
// merge k-means).
//
// EngineOptions composes everything a run needs — the two k-means
// configs (each naming its distance kernel), the resource model the
// planner consumes, execution/failure options and observability sinks —
// so tools and benches configure a pipeline in one place instead of
// threading four structs through free functions. PipelineBuilder is the
// fluent front end:
//
//   MetricsRegistry registry;
//   auto result = PipelineBuilder()
//                     .WithPartialKMeans(partial)
//                     .WithMerge(merge)
//                     .WithResources({.memory_bytes_per_operator = 1 << 20})
//                     .WithMetrics(&registry)
//                     .Run(bucket_paths);
//
// This builder is the engine's single entry point: the serve layer
// (serve/service.h) submits every job through it, and the legacy
// free-function wrappers were retired (pmkm_lint's `direct-run` rule
// keeps new ones from appearing).

#ifndef PMKM_STREAM_ENGINE_H_
#define PMKM_STREAM_ENGINE_H_

#include <atomic>
#include <string>
#include <vector>

#include "cluster/kmeans.h"
#include "cluster/merge.h"
#include "common/flags.h"
#include "stream/checkpoint.h"
#include "stream/plan.h"

namespace pmkm {

namespace obs {
class DebugServer;
}  // namespace obs

/// Everything one streamed partial/merge run needs.
struct EngineOptions {
  /// Per-chunk clustering run by each partial clone.
  KMeansConfig partial;

  /// Collective merge of the pooled weighted centroids.
  MergeKMeansConfig merge;

  /// What the planner may use (memory per operator, cores).
  ResourceModel resources;

  /// Failure policy, retries, deadline, observability sinks.
  StreamExecOptions exec;

  /// Force the partition size N' instead of letting the planner derive it
  /// from the memory budget (0 = planner chooses). Used by the speed-up
  /// experiments; the clone count and queue capacity are re-planned
  /// against the forced size.
  size_t chunk_points_override = 0;

  /// Durable checkpoint/resume (stream/checkpoint.h, DESIGN.md §13).
  /// Disabled unless checkpoint.dir is set.
  CheckpointOptions checkpoint;
};

/// The engine flag set shared by tools/pmkm_cluster and the stream
/// benches: register the flags, parse, then ToOptions().
struct EngineFlags {
  /// Cap on --max_retries. Every failed bucket read and chunk fit may
  /// retry this often, and a remote client can set it.
  static constexpr int64_t kMaxRetries = 16;

  int64_t k = 40;
  int64_t restarts = 10;
  int64_t memory_kib = 512;
  int64_t cores = 0;
  std::string failure_policy = "failfast";
  int64_t max_retries = 0;
  int64_t deadline_ms = 0;
  std::string kernel = "auto";
  std::string checkpoint_dir;
  int64_t checkpoint_sync = 1;
  bool resume = true;

  /// Registers --k, --restarts, --memory-kib, --cores, --failure_policy,
  /// --max_retries, --deadline_ms, --kernel, --checkpoint_dir,
  /// --checkpoint_sync and --resume/--no-resume on `parser`.
  void Register(FlagParser* parser);

  /// Validates and converts the parsed values; --max_retries becomes
  /// exec.io_retry.max_attempts = max_retries + 1 under either failure
  /// policy, and --kernel becomes both k-means configs' lloyd.kernel.
  /// Fails on k or restarts below 1, a negative memory budget, core
  /// count, retry count or deadline, a retry count above kMaxRetries, an
  /// unknown failure policy, an unknown kernel name, or a kernel this
  /// host cannot run.
  Result<EngineOptions> ToOptions() const;
};

/// Fluent builder/runner for the streamed partial/merge pipeline. Every
/// With* method overrides one piece of the composed EngineOptions; Run
/// compiles the physical plan and executes it.
class PipelineBuilder {
 public:
  PipelineBuilder() = default;
  explicit PipelineBuilder(EngineOptions options)
      : options_(std::move(options)) {}

  PipelineBuilder& WithPartialKMeans(const KMeansConfig& config) {
    options_.partial = config;
    return *this;
  }
  PipelineBuilder& WithMerge(const MergeKMeansConfig& config) {
    options_.merge = config;
    return *this;
  }
  PipelineBuilder& WithResources(const ResourceModel& resources) {
    options_.resources = resources;
    return *this;
  }
  PipelineBuilder& WithExecution(const StreamExecOptions& exec) {
    options_.exec = exec;
    return *this;
  }
  PipelineBuilder& WithFailurePolicy(FailurePolicy policy) {
    options_.exec.failure_policy = policy;
    return *this;
  }
  /// Wires a metrics registry into the run (operator counters, queue
  /// gauges). Replaces manual StreamExecOptions::obs plumbing.
  PipelineBuilder& WithMetrics(MetricsRegistry* registry) {
    options_.exec.obs.metrics = registry;
    return *this;
  }
  /// Wires a Chrome-trace recorder into the run.
  PipelineBuilder& WithTrace(TraceRecorder* trace) {
    options_.exec.obs.trace = trace;
    return *this;
  }
  /// Attaches a live debug server (obs/debug_server.h): the run publishes
  /// its identity, live per-operator stats and the final result into the
  /// server's RunBoard, served at /statusz and /runz while the pipeline
  /// executes. Null detaches.
  PipelineBuilder& WithDebugServer(obs::DebugServer* server);
  /// Tags the run with an explicit id. By default the engine generates
  /// one; the id appears in log lines, the metrics export, the trace file
  /// and the checkpoint journal so one run's artifacts correlate.
  PipelineBuilder& WithRunId(std::string run_id) {
    options_.exec.obs.run_id = std::move(run_id);
    return *this;
  }
  PipelineBuilder& WithChunkPoints(size_t chunk_points) {
    options_.chunk_points_override = chunk_points;
    return *this;
  }
  /// Enables durable checkpointing into `dir`: completed cells are
  /// journaled as the run progresses, and a re-run over the same inputs
  /// and configuration resumes from the journal instead of restarting
  /// (skipping already-clustered buckets; final results are
  /// bitwise-identical to an uninterrupted run). `sync_interval` batches
  /// journal fsyncs (1 = fsync every cell; 0 is InvalidArgument).
  PipelineBuilder& WithCheckpoint(std::string dir,
                                  size_t sync_interval = 1) {
    options_.checkpoint.dir = std::move(dir);
    options_.checkpoint.sync_interval = sync_interval;
    return *this;
  }
  /// With resume=false an existing journal is discarded and the run
  /// starts fresh (still checkpointing as it goes).
  PipelineBuilder& WithResume(bool resume) {
    options_.checkpoint.resume = resume;
    return *this;
  }
  /// Attaches a cancellation token: once the pointed-at flag is true,
  /// the executor aborts the pipeline and Run() returns
  /// Status::Cancelled within one chunk fit or cell merge. The flag's
  /// owner must outlive the run; null (default) detaches. This is how
  /// ClusterService::CancelJob interrupts a running job.
  PipelineBuilder& WithCancelToken(const std::atomic<bool>* cancel) {
    options_.exec.cancel = cancel;
    return *this;
  }

  const EngineOptions& options() const { return options_; }

  /// Compiles and executes the plan over bucket files, each cut into
  /// consecutive chunks of the planned size in file order. This is the
  /// engine's one scan (ScanOperator): a bucket with no points, a second
  /// bucket of one cell, or a bucket whose D differs from the first
  /// readable one's fails the run with InvalidArgument, or is quarantined
  /// under kSkipAndContinue.
  Result<StreamRunResult> Run(
      const std::vector<std::string>& bucket_paths) const;

  /// Renders the physical plan EXPLAIN (without running) for the given
  /// bucket files.
  Result<std::string> Explain(
      const std::vector<std::string>& bucket_paths) const;

 private:
  EngineOptions options_;
};

}  // namespace pmkm

#endif  // PMKM_STREAM_ENGINE_H_
