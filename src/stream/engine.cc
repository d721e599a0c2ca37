#include "stream/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "common/bytes.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "obs/debug_server.h"
#include "obs/metrics.h"
#include "obs/runboard.h"
#include "obs/trace.h"
#include "stream/explain.h"

namespace pmkm {

namespace {

// A fresh run id: 16 hex chars hashed from the wall clock, this process's
// address space and a per-process counter — unique enough to correlate
// the artifacts of one run without any coordination.
std::string GenerateRunId() {
  static std::atomic<uint64_t> counter{0};
  const uint64_t now = static_cast<uint64_t>(
      std::chrono::system_clock::now().time_since_epoch().count());
  const uint64_t seq = counter.fetch_add(1, std::memory_order_relaxed);
  const auto self = reinterpret_cast<uintptr_t>(&counter);  // ASLR entropy
  uint64_t h = internal::Fnv1a64(&now, sizeof(now), internal::kFnvOffset);
  h = internal::Fnv1a64(&seq, sizeof(seq), h);
  h = internal::Fnv1a64(&self, sizeof(self), h);
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// Stamps the run id onto every attached artifact sink: log lines, the
// metrics export (pmkm_run_info) and the trace file.
void ApplyRunIdTags(const ObsContext& obs) {
  SetLogRunId(obs.run_id);
  if (obs.metrics != nullptr) obs.metrics->SetRunId(obs.run_id);
  if (obs.trace != nullptr) obs.trace->SetRunId(obs.run_id);
}

std::string PlanSummary(const PhysicalPlan& plan) {
  return "chunk=" + std::to_string(plan.chunk_points) + " clones=" +
         std::to_string(plan.partial_clones) + " queue=" +
         std::to_string(plan.queue_capacity);
}

// Publishes a failed run to the board (no-op without one) and forwards
// the status, so error returns stay one-liners.
Status FailRun(const ObsContext& obs, Status status) {
  if (obs.board != nullptr) {
    JsonValue error = JsonValue::Object();
    error.Set("error", status.ToString());
    obs.board->EndRun(false, status.ToString(), std::move(error));
  }
  return status;
}

// Resolves options.kernel and points both Lloyd configs at it (explicitly
// set lloyd.kernel pointers win). Fails if the host cannot run it.
Status ResolveKernel(EngineOptions* options) {
  if (!KernelAvailable(options->kernel)) {
    return Status::InvalidArgument(
        "kernel '" + std::string(KernelKindToString(options->kernel)) +
        "' is not available on this host (host is " + HostIsaDescription() +
        ")");
  }
  const DistanceKernel* kernel = &GetKernel(options->kernel);
  if (options->partial.lloyd.kernel == nullptr) {
    options->partial.lloyd.kernel = kernel;
  }
  if (options->merge.lloyd.kernel == nullptr) {
    options->merge.lloyd.kernel = kernel;
  }
  return Status::OK();
}

// Fingerprint over every configuration field that affects the numeric
// result of a run, plus the planned partition size N'. A checkpoint
// journal written under a different fingerprint must not be resumed:
// mixing cells clustered under different configs (or chunkings) would
// silently change the output, so the engine starts fresh instead. The
// kernel and LloydConfig::accelerate are deliberately excluded (the
// assignments are bit-identical across kernels and with or without
// pruning) and so is the clone count (the merge pools partitions in id
// order, independent of arrival interleaving).
uint64_t ConfigFingerprint(const EngineOptions& options,
                           const PhysicalPlan& plan) {
  std::vector<uint8_t> fields;
  PutU64(&fields, options.partial.k);
  PutU64(&fields, options.partial.restarts);
  PutU64(&fields, static_cast<uint64_t>(options.partial.seeding));
  PutU64(&fields, options.partial.seed);
  PutF64(&fields, options.partial.lloyd.epsilon);
  PutU64(&fields, options.partial.lloyd.max_iterations);
  PutU64(&fields, options.merge.k);
  PutU64(&fields, options.merge.restarts);
  PutU64(&fields, static_cast<uint64_t>(options.merge.seeding));
  PutU64(&fields, options.merge.seed);
  PutF64(&fields, options.merge.lloyd.epsilon);
  PutU64(&fields, options.merge.lloyd.max_iterations);
  PutU64(&fields, plan.chunk_points);
  return internal::Fnv1a64(fields.data(), fields.size(), internal::kFnvOffset);
}

// Splits the input into buckets still to cluster and cells restored from
// the journal. Each path's header is probed for its cell id; unreadable
// buckets stay in the todo list so the scan applies the real failure
// policy (retry/quarantine) to them.
struct ResumeSplit {
  std::vector<std::string> todo;
  std::map<GridCellId, CellClustering> restored;
};

ResumeSplit SplitResumablePaths(
    const std::vector<std::string>& paths,
    const std::map<GridCellId, CellClustering>& completed) {
  ResumeSplit out;
  for (const std::string& path : paths) {
    auto probe = GridBucketReader::Open(path);
    if (probe.ok()) {
      auto it = completed.find(probe->cell());
      if (it != completed.end()) {
        out.restored.emplace(it->first, it->second);
        continue;
      }
    }
    out.todo.push_back(path);
  }
  return out;
}

// Copies checkpoint accounting into the run report and metrics.
void FillCheckpointReport(const CheckpointWriter* checkpoint,
                          size_t cells_resumed, bool degraded,
                          const ObsContext& obs, RunReport* report) {
  report->cells_resumed = cells_resumed;
  report->checkpoint_degraded = degraded;
  if (checkpoint != nullptr) {
    report->checkpoint_cells = checkpoint->cells_appended();
    report->checkpoint_epoch = checkpoint->epoch();
    report->checkpoint_torn_tail = checkpoint->recovered().torn_tail;
  }
  if (obs.metrics != nullptr && cells_resumed > 0) {
    obs.metrics->counter("checkpoint.cells_resumed")
        .Increment(cells_resumed);
  }
}

// Executes the compiled plan: wires queues and operators, runs the
// executor, and assembles the StreamRunResult (including the resilience
// report and per-operator stats). `checkpoint` (nullable) journals every
// completed cell; `restored` cells are folded into the result as if the
// merge had produced them.
Result<StreamRunResult> RunPlan(std::unique_ptr<Operator> scan,
                                ScanOperator* scan_raw,
                                std::shared_ptr<PointChunkQueue> points,
                                const EngineOptions& options,
                                const PhysicalPlan& plan,
                                CheckpointWriter* checkpoint = nullptr,
                                std::map<GridCellId, CellClustering>
                                    restored = {},
                                bool checkpoint_degraded = false) {
  const StreamExecOptions& exec = options.exec;
  auto centroids =
      std::make_shared<CentroidQueue>(plan.queue_capacity);

  // Queue instruments live in the registry, so they survive the queues
  // themselves and show up in the metrics export.
  if (exec.obs.metrics != nullptr) {
    MetricsRegistry* reg = exec.obs.metrics;
    points->AttachMetrics(QueueMetrics{
        &reg->gauge("queue.points.depth"),
        &reg->histogram("queue.points.push_block_us"),
        &reg->histogram("queue.points.pop_wait_us")});
    centroids->AttachMetrics(QueueMetrics{
        &reg->gauge("queue.centroids.depth"),
        &reg->histogram("queue.centroids.push_block_us"),
        &reg->histogram("queue.centroids.pop_wait_us")});
  }

  const bool tolerant =
      exec.failure_policy == FailurePolicy::kSkipAndContinue;

  Executor executor;
  scan->set_failure_policy(exec.failure_policy);
  scan->set_obs(exec.obs);
  scan->set_cancel_token(exec.cancel);
  scan->set_live_slot(0);
  std::vector<std::string> operator_names{scan->name()};
  executor.Add(std::move(scan));
  std::vector<PartialKMeansOperator*> partial_raw;
  for (size_t c = 0; c < plan.partial_clones; ++c) {
    auto partial = std::make_unique<PartialKMeansOperator>(
        options.partial, points, centroids,
        "partial-kmeans#" + std::to_string(c), exec.io_retry);
    partial->set_failure_policy(exec.failure_policy);
    partial->set_obs(exec.obs);
    partial->set_live_slot(operator_names.size());
    operator_names.push_back(partial->name());
    partial_raw.push_back(partial.get());
    executor.Add(std::move(partial));
  }
  auto merge = std::make_unique<MergeKMeansOperator>(options.merge,
                                                     centroids, tolerant);
  merge->set_obs(exec.obs);
  merge->set_failure_policy(exec.failure_policy);
  merge->set_checkpoint(checkpoint);
  merge->set_live_slot(operator_names.size());
  operator_names.push_back(merge->name());
  MergeKMeansOperator* merge_raw = merge.get();
  executor.Add(std::move(merge));

  if (exec.obs.board != nullptr) {
    exec.obs.board->BeginRun(exec.obs.run_id, PlanSummary(plan),
                             operator_names);
  }

  ExecutorOptions executor_options;
  executor_options.max_retries = exec.max_retries;
  executor_options.op_timeout_ms = exec.op_timeout_ms;

  const Stopwatch watch;
  if (Status st = executor.Run(executor_options); !st.ok()) {
    return FailRun(exec.obs, std::move(st));
  }

  StreamRunResult out;
  out.plan = plan;
  out.run_id = exec.obs.run_id;
  out.wall_seconds = watch.ElapsedSeconds();
  out.cells = merge_raw->results();
  // Resumed cells join the result as if the merge had just produced them
  // (a freshly recomputed cell wins on the off chance both exist).
  for (auto& [cell, clustering] : restored) {
    out.cells.emplace(cell, std::move(clustering));
  }

  RunReport& report = out.report;
  report.failure_policy = exec.failure_policy;
  report.cells_clustered = out.cells.size();
  report.operator_restarts = executor.report().total_restarts;
  report.stalled_operators = executor.report().stalled_operators;
  if (scan_raw != nullptr) {
    report.io_retries = scan_raw->io_retries();
    for (const QuarantinedBucket& q : scan_raw->quarantined()) {
      report.quarantined.push_back(QuarantinedCellReport{
          q.path, q.cell, q.cell_known, q.error.ToString()});
    }
  }
  for (PartialKMeansOperator* partial : partial_raw) {
    report.chunks_dropped += partial->chunks_dropped();
  }
  // Cells the merge skipped (dropped upstream or incomplete) that the scan
  // did not already report.
  for (const auto& [cell, reason] : merge_raw->skipped_cells()) {
    const bool already_reported = std::any_of(
        report.quarantined.begin(), report.quarantined.end(),
        [&cell = cell](const QuarantinedCellReport& q) {
          return q.cell_known && q.cell == cell;
        });
    if (!already_reported) {
      report.quarantined.push_back(
          QuarantinedCellReport{"", cell, true, reason});
    }
  }
  // A clean, fully-clustered run is sealed with kRunEnd so the next run
  // starts a fresh journal. A degraded run leaves the journal open: its
  // healthy cells stay resumable, and a re-run retries only the
  // quarantined/skipped ones.
  const bool run_degraded = !report.quarantined.empty() ||
                            report.chunks_dropped > 0 ||
                            executor.report().degraded;
  bool ckpt_degraded = checkpoint_degraded || merge_raw->checkpoint_failed();
  if (checkpoint != nullptr && !merge_raw->checkpoint_failed() &&
      !run_degraded) {
    const Status st = checkpoint->Finalize();
    if (!st.ok()) {
      if (exec.failure_policy == FailurePolicy::kFailFast) {
        return FailRun(exec.obs, st);
      }
      PMKM_LOG(Warning) << "checkpoint finalize failed: " << st;
      ckpt_degraded = true;
    }
  }
  FillCheckpointReport(checkpoint, restored.size(), ckpt_degraded,
                       exec.obs, &report);
  report.degraded = run_degraded;

  for (const OperatorOutcome& outcome : executor.report().operators) {
    out.operator_stats.push_back(outcome.stats);
  }
  out.queues.push_back(QueueStatsSnapshot{
      "points", points->capacity(), points->HighWaterMark(),
      points->total_pushed()});
  out.queues.push_back(QueueStatsSnapshot{
      "centroids", centroids->capacity(), centroids->HighWaterMark(),
      centroids->total_pushed()});
  if (exec.obs.metrics != nullptr) {
    for (const OperatorStats& stats : out.operator_stats) {
      stats.ExportTo(exec.obs.metrics);
    }
    for (const QueueStatsSnapshot& q : out.queues) {
      exec.obs.metrics->gauge("queue." + q.name + ".high_water")
          .Set(static_cast<int64_t>(q.high_water_mark));
      exec.obs.metrics->counter("queue." + q.name + ".pushed")
          .Increment(q.total_pushed);
    }
  }
  if (exec.obs.board != nullptr) {
    if (checkpoint != nullptr) {
      JsonValue ckpt = JsonValue::Object();
      ckpt.Set("cells_journaled", checkpoint->cells_appended());
      ckpt.Set("epoch", checkpoint->epoch());
      ckpt.Set("cells_resumed", out.report.cells_resumed);
      ckpt.Set("degraded", out.report.checkpoint_degraded);
      exec.obs.board->PublishCheckpoint(std::move(ckpt));
    }
    exec.obs.board->EndRun(
        true, out.report.degraded ? "ok (degraded)" : "ok",
        StreamRunResultToJson(out));
  }
  return out;
}

// Probes bucket files for dimensionality/sizing and compiles the physical
// plan. Under kSkipAndContinue an unreadable first bucket must not kill
// the run: probe forward until one opens (the scan will quarantine the
// bad ones properly later). Also reports the probed dim/points for
// EXPLAIN rendering.
struct ProbedPlan {
  PhysicalPlan plan;
  size_t dim = 0;
  size_t total_points = 0;
};

Result<ProbedPlan> PlanForPaths(const std::vector<std::string>& paths,
                                const EngineOptions& options) {
  if (paths.empty()) {
    return Status::InvalidArgument("no bucket files given");
  }
  Status probe_error;
  for (const std::string& path : paths) {
    auto probe = GridBucketReader::Open(path);
    if (probe.ok()) {
      ProbedPlan out;
      out.dim = probe->dim();
      out.total_points = probe->total_points();
      out.plan = PlanPartialMerge(probe->dim(), probe->total_points(),
                                  options.resources,
                                  options.chunk_points_override);
      return out;
    }
    probe_error = probe.status();
    if (options.exec.failure_policy != FailurePolicy::kSkipAndContinue) {
      return probe_error;
    }
  }
  return probe_error;
}

}  // namespace

void EngineFlags::Register(FlagParser* parser) {
  PMKM_CHECK(parser != nullptr);
  parser->AddInt("k", &k, "clusters per cell")
      .AddInt("restarts", &restarts, "random seed sets R")
      .AddInt("memory-kib", &memory_kib,
              "stream: per-operator memory budget")
      .AddInt("cores", &cores,
              "stream: cores; one partial clone runs per core, plus scan "
              "and merge threads that mostly block (0 = autodetect)")
      .AddString("failure_policy", &failure_policy,
                 "stream: failfast | retry | skip")
      .AddInt("max_retries", &max_retries,
              "stream: operator restarts under --failure_policy=retry")
      .AddInt("op_timeout_ms", &op_timeout_ms,
              "stream: watchdog stall timeout (0 = off)")
      .AddString("kernel", &kernel,
                 "distance kernel: scalar | avx2 | neon | auto")
      .AddString("checkpoint_dir", &checkpoint_dir,
                 "stream: durable checkpoint directory (empty = off)")
      .AddInt("checkpoint_sync", &checkpoint_sync,
              "stream: fsync the checkpoint every N cells")
      .AddBool("resume", &resume,
               "stream: resume from an existing checkpoint "
               "(--no-resume starts fresh)");
}

Result<EngineOptions> EngineFlags::ToOptions() const {
  if (k <= 0) return Status::InvalidArgument("--k must be >= 1");
  if (restarts <= 0) {
    return Status::InvalidArgument("--restarts must be >= 1");
  }
  EngineOptions options;
  options.partial.k = static_cast<size_t>(k);
  options.partial.restarts = static_cast<size_t>(restarts);
  options.merge.k = static_cast<size_t>(k);
  options.resources.memory_bytes_per_operator =
      static_cast<size_t>(memory_kib) << 10;
  options.resources.cores = static_cast<size_t>(std::max<int64_t>(0, cores));
  PMKM_ASSIGN_OR_RETURN(options.exec.failure_policy,
                        ParseFailurePolicy(failure_policy));
  options.exec.max_retries = static_cast<size_t>(max_retries);
  options.exec.op_timeout_ms = static_cast<uint64_t>(op_timeout_ms);
  PMKM_ASSIGN_OR_RETURN(options.kernel, ParseKernelKind(kernel));
  if (!KernelAvailable(options.kernel)) {
    return Status::InvalidArgument(
        "--kernel=" + kernel + " is not available on this host (host is " +
        HostIsaDescription() + ")");
  }
  if (checkpoint_sync <= 0) {
    return Status::InvalidArgument("--checkpoint_sync must be >= 1");
  }
  options.checkpoint.dir = checkpoint_dir;
  options.checkpoint.sync_interval = static_cast<size_t>(checkpoint_sync);
  options.checkpoint.resume = resume;
  return options;
}

PipelineBuilder& PipelineBuilder::WithDebugServer(obs::DebugServer* server) {
  options_.exec.obs.board = server == nullptr ? nullptr : server->board();
  return *this;
}

Result<StreamRunResult> PipelineBuilder::Run(
    const std::vector<std::string>& bucket_paths) const {
  EngineOptions options = options_;
  if (options.exec.cancel != nullptr &&
      options.exec.cancel->load(std::memory_order_acquire)) {
    return Status::Cancelled("run cancelled before start");
  }
  PMKM_RETURN_NOT_OK(ResolveKernel(&options));
  if (options.exec.obs.run_id.empty()) {
    options.exec.obs.run_id = GenerateRunId();
  }
  ApplyRunIdTags(options.exec.obs);
  // The plan is always computed from the FULL input list, even when the
  // checkpoint lets the scan skip buckets: the probed bucket (and with it
  // the partition size N') must not depend on how far the previous run
  // got, or a resumed run would chunk differently and lose bitwise
  // identity with an uninterrupted one.
  PMKM_ASSIGN_OR_RETURN(ProbedPlan probed,
                        PlanForPaths(bucket_paths, options));

  std::optional<CheckpointWriter> checkpoint;
  bool checkpoint_degraded = false;
  ResumeSplit split;
  split.todo = bucket_paths;
  if (options.checkpoint.enabled()) {
    auto opened = CheckpointWriter::Open(
        options.checkpoint, ConfigFingerprint(options, probed.plan),
        options.exec.obs);
    if (!opened.ok()) {
      // Same stance as a corrupt bucket: an unusable checkpoint must not
      // kill a tolerant run — it degrades to uncheckpointed.
      if (options.exec.failure_policy !=
          FailurePolicy::kSkipAndContinue) {
        return opened.status();
      }
      PMKM_LOG(Warning) << "cannot open checkpoint in "
                        << options.checkpoint.dir
                        << "; continuing without checkpointing: "
                        << opened.status();
      checkpoint_degraded = true;
    } else {
      checkpoint.emplace(std::move(opened).value());
      if (!checkpoint->recovered().completed.empty()) {
        split = SplitResumablePaths(bucket_paths,
                                    checkpoint->recovered().completed);
      }
    }
  }

  // When the journal restored every cell, the scan runs over zero buckets
  // and RunPlan assembles the result (and re-seals the journal) as usual.
  auto points =
      std::make_shared<PointChunkQueue>(probed.plan.queue_capacity);
  auto scan = std::make_unique<ScanOperator>(
      split.todo, probed.plan.chunk_points, points, options.exec.io_retry);
  ScanOperator* scan_raw = scan.get();
  return RunPlan(std::move(scan), scan_raw, points, options, probed.plan,
                 checkpoint.has_value() ? &*checkpoint : nullptr,
                 std::move(split.restored), checkpoint_degraded);
}

Result<StreamRunResult> PipelineBuilder::RunInMemory(
    std::vector<GridBucket> cells) const {
  if (options_.exec.cancel != nullptr &&
      options_.exec.cancel->load(std::memory_order_acquire)) {
    return Status::Cancelled("run cancelled before start");
  }
  if (cells.empty()) return Status::InvalidArgument("no cells given");
  if (options_.checkpoint.enabled()) {
    return Status::InvalidArgument(
        "checkpointing requires on-disk bucket runs (Run); in-memory cells "
        "have no durable identity to resume against");
  }
  EngineOptions options = options_;
  PMKM_RETURN_NOT_OK(ResolveKernel(&options));
  if (options.exec.obs.run_id.empty()) {
    options.exec.obs.run_id = GenerateRunId();
  }
  ApplyRunIdTags(options.exec.obs);
  const size_t dim = cells[0].points.dim();
  size_t max_points = 0;
  std::set<GridCellId> seen;
  for (const GridBucket& c : cells) {
    if (c.points.empty()) {
      return Status::InvalidArgument("cell " + c.cell.ToString() +
                                     " has no points");
    }
    if (!seen.insert(c.cell).second) {
      return Status::InvalidArgument("cell " + c.cell.ToString() +
                                     " given twice");
    }
    max_points = std::max(max_points, c.points.size());
  }
  const PhysicalPlan plan = PlanPartialMerge(
      dim, max_points, options.resources, options.chunk_points_override);
  auto points = std::make_shared<PointChunkQueue>(plan.queue_capacity);
  auto scan = std::make_unique<MemoryScanOperator>(
      std::move(cells), plan.chunk_points, points);
  return RunPlan(std::move(scan), nullptr, points, options, plan);
}

Result<std::string> PipelineBuilder::Explain(
    const std::vector<std::string>& bucket_paths) const {
  EngineOptions options = options_;
  PMKM_RETURN_NOT_OK(ResolveKernel(&options));
  PMKM_ASSIGN_OR_RETURN(ProbedPlan probed,
                        PlanForPaths(bucket_paths, options));
  return ExplainPartialMergePlan(
      bucket_paths.size(), probed.total_points * bucket_paths.size(),
      probed.dim, options.partial, options.merge, probed.plan);
}

}  // namespace pmkm
