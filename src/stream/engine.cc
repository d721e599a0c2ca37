#include "stream/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "cluster/kernels/kernel.h"
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

// Stamps the run id onto the attached artifact sinks: the metrics export
// (pmkm_run_info) and the trace file. Log lines take it per thread
// (ScopedLogRunId in PipelineBuilder::Run and the Executor).
void ApplyRunIdTags(const ObsContext& obs) {
  if (obs.metrics != nullptr) obs.metrics->SetRunId(obs.run_id);
  if (obs.trace != nullptr) obs.trace->SetRunId(obs.run_id);
}

// The instruments of the exchange queue `name`: none without a registry.
// They live in the registry, so they outlive the queue and show up in the
// metrics export.
QueueMetrics ExchangeMetrics(MetricsRegistry* registry,
                             const std::string& name) {
  if (registry == nullptr) return {};
  const std::string prefix = "queue." + name + ".";
  return QueueMetrics{&registry->gauge(prefix + "depth"),
                      &registry->histogram(prefix + "push_block_us"),
                      &registry->histogram(prefix + "pop_wait_us")};
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
    obs.board->EndRun(obs.run_id, false, status.ToString(),
                      std::move(error));
  }
  return status;
}

// Fingerprint over every configuration field that affects the numeric
// result of a run, plus the planned partition size N'. A checkpoint
// journal written under a different fingerprint must not be resumed:
// mixing cells clustered under different configs (or chunkings) would
// silently change the output, so the engine starts fresh instead. The
// kernel and LloydConfig::accelerate are deliberately excluded (the
// assignments are bit-identical across kernels and with or without
// pruning) and so is the clone count (the merge pools partitions in id
// order, independent of arrival interleaving). The four constants hold
// the slots of settings that each step now fixes (the partial's random
// seeding; the merge's one restart, heaviest seeding and seed), so a
// journal written while they were settable still resumes.
uint64_t ConfigFingerprint(const EngineOptions& options,
                           const PhysicalPlan& plan) {
  std::vector<uint8_t> fields;
  PutU64(&fields, options.partial.k);
  PutU64(&fields, options.partial.restarts);
  PutU64(&fields, 0);  // seeding: random
  PutU64(&fields, options.partial.seed);
  PutF64(&fields, options.partial.lloyd.epsilon);
  PutU64(&fields, options.partial.lloyd.max_iterations);
  PutU64(&fields, options.merge.k);
  PutU64(&fields, 1);  // restarts
  PutU64(&fields, 1);  // seeding: heaviest
  PutU64(&fields, 1);  // seed
  PutF64(&fields, options.merge.lloyd.epsilon);
  PutU64(&fields, options.merge.lloyd.max_iterations);
  PutU64(&fields, plan.chunk_points);
  return internal::Fnv1a64(fields.data(), fields.size(), internal::kFnvOffset);
}

// Splits the input into buckets still to cluster and cells restored from
// the journal. Each path's header is probed for its cell id; unreadable
// buckets stay in the todo list so the scan applies the real failure
// policy (retry/quarantine) to them. So do all buckets of a cell that
// several paths hold: the scan rejects the duplicate again, as it did in
// the run that journaled the cell before the duplicate dropped it.
struct ResumeSplit {
  std::vector<std::string> todo;
  std::map<GridCellId, CellClustering> restored;
};

ResumeSplit SplitResumablePaths(
    const std::vector<std::string>& paths,
    const std::map<GridCellId, CellClustering>& completed) {
  std::vector<std::optional<GridCellId>> cells;
  std::map<GridCellId, size_t> holders;
  for (const std::string& path : paths) {
    auto probe = GridBucketReader::Open(path);
    cells.push_back(probe.ok() ? std::optional(probe->cell())
                               : std::nullopt);
    if (probe.ok()) ++holders[probe->cell()];
  }
  ResumeSplit out;
  for (size_t i = 0; i < paths.size(); ++i) {
    if (cells[i].has_value() && holders[*cells[i]] == 1) {
      auto it = completed.find(*cells[i]);
      if (it != completed.end()) {
        out.restored.emplace(it->first, it->second);
        continue;
      }
    }
    out.todo.push_back(paths[i]);
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
Result<StreamRunResult> RunPlan(
    std::unique_ptr<ScanOperator> scan,
    std::shared_ptr<PointChunkQueue> points,
    std::shared_ptr<ChunkBufferPool> buffers, const EngineOptions& options,
    const PhysicalPlan& plan, CheckpointWriter* checkpoint,
    std::map<GridCellId, CellClustering> restored,
    bool checkpoint_degraded) {
  const StreamExecOptions& exec = options.exec;
  auto centroids = std::make_shared<CentroidQueue>(
      plan.queue_capacity, ExchangeMetrics(exec.obs.metrics, "centroids"));

  Executor executor;
  scan->set_failure_policy(exec.failure_policy);
  scan->set_obs(exec.obs);
  scan->set_live_slot(0);
  std::vector<std::string> operator_names{scan->name()};
  ScanOperator* scan_raw = scan.get();
  executor.Add(std::move(scan));
  for (size_t c = 0; c < plan.partial_clones; ++c) {
    auto partial = std::make_unique<PartialKMeansOperator>(
        options.partial, points, buffers, centroids,
        "partial-kmeans#" + std::to_string(c), exec.io_retry);
    partial->set_failure_policy(exec.failure_policy);
    partial->set_obs(exec.obs);
    partial->set_live_slot(operator_names.size());
    operator_names.push_back(partial->name());
    executor.Add(std::move(partial));
  }
  auto merge = std::make_unique<MergeKMeansOperator>(options.merge,
                                                     centroids);
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

  const Stopwatch watch;
  if (Status st = executor.Run(exec.cancel, exec.deadline_ms); !st.ok()) {
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

  // The report's counters are the operators' own stats: the scan's slot
  // and the partial clones' slots after it.
  out.operator_stats = executor.operator_stats();
  RunReport& report = out.report;
  report.failure_policy = exec.failure_policy;
  report.cells_clustered = out.cells.size();
  report.io_retries = out.operator_stats[0].retries;
  for (const QuarantinedBucket& q : scan_raw->quarantined()) {
    report.quarantined.push_back(QuarantinedCellReport{
        q.path, q.cell, q.cell_known, q.error.ToString()});
  }
  for (size_t c = 1; c <= plan.partial_clones; ++c) {
    report.chunks_dropped += out.operator_stats[c].items_dropped;
    report.partial_lloyd += out.operator_stats[c].lloyd;
  }
  // Cells the merge skipped (dropped upstream, failed or incomplete) that
  // the scan did not already report.
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
  const bool run_degraded =
      !report.quarantined.empty() || report.chunks_dropped > 0;
  bool ckpt_degraded = checkpoint_degraded || merge_raw->checkpoint_failed();
  if (checkpoint != nullptr && !merge_raw->checkpoint_failed() &&
      !run_degraded) {
    const Status st = checkpoint->Finalize();
    if (!st.ok()) {
      if (exec.failure_policy != FailurePolicy::kSkipAndContinue) {
        return FailRun(exec.obs, st);
      }
      PMKM_LOG(Warning) << "checkpoint finalize failed: " << st;
      ckpt_degraded = true;
    }
  }
  FillCheckpointReport(checkpoint, restored.size(), ckpt_degraded,
                       exec.obs, &report);
  report.degraded = run_degraded;

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
    exec.obs.board->EndRun(
        exec.obs.run_id, true, out.report.degraded ? "ok (degraded)" : "ok",
        StreamRunResultToJson(out));
  }
  return out;
}

// Probes bucket files for dimensionality/sizing and compiles the physical
// plan. Under kSkipAndContinue an unreadable first bucket must not kill
// the run: probe forward until one opens (the scan will quarantine the
// bad ones properly later). Every bucket is taken to hold as many points
// as the probed one. Its header's count is untrusted, so the plan sizes
// from what the file can hold at most. Also reports the probed dim and
// the run's estimated points for EXPLAIN rendering.
struct ProbedPlan {
  PhysicalPlan plan;
  size_t dim = 0;
  size_t points_per_cell = 0;
  size_t total_points = 0;  // saturates at SIZE_MAX
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
      out.points_per_cell =
          std::min(probe->total_points(), probe->available_points());
      if (__builtin_mul_overflow(out.points_per_cell, paths.size(),
                                 &out.total_points)) {
        out.total_points = std::numeric_limits<size_t>::max();
      }
      out.plan = PlanPartialMerge(probe->dim(), out.points_per_cell,
                                  paths.size(), options.resources,
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
      .AddInt("memory-kib", &memory_kib, "per-operator memory budget")
      .AddInt("cores", &cores,
              "cores; one partial clone runs per core (never more clones "
              "than the run has chunks), plus scan and merge threads that "
              "mostly block (0 = the CPUs this process may run on)")
      .AddString("failure_policy", &failure_policy,
                 "after the retries: failfast (fail the run) | skip "
                 "(quarantine the bucket, chunk or cell)")
      .AddInt("max_retries", &max_retries,
              "retries per failed bucket read or chunk fit (at most " +
                  std::to_string(kMaxRetries) + ")")
      .AddInt("deadline_ms", &deadline_ms,
              "abort the run once it has run this long (0 = none)")
      .AddString("kernel", &kernel,
                 "distance kernel: scalar | avx2 | auto")
      .AddString("checkpoint_dir", &checkpoint_dir,
                 "durable checkpoint directory (empty = off)")
      .AddInt("checkpoint_sync", &checkpoint_sync,
              "fsync the checkpoint every N cells")
      .AddBool("resume", &resume,
               "resume from an existing checkpoint (--no-resume starts "
               "fresh)");
}

Result<EngineOptions> EngineFlags::ToOptions() const {
  if (k <= 0) return Status::InvalidArgument("--k must be >= 1");
  if (restarts <= 0) {
    return Status::InvalidArgument("--restarts must be >= 1");
  }
  for (const auto& [name, value] :
       {std::pair<const char*, int64_t>{"memory-kib", memory_kib},
        {"cores", cores},
        {"max_retries", max_retries},
        {"deadline_ms", deadline_ms}}) {
    if (value < 0) {
      return Status::InvalidArgument("--" + std::string(name) +
                                     " must be >= 0");
    }
  }
  if (max_retries > kMaxRetries) {
    return Status::InvalidArgument("--max_retries must be <= " +
                                   std::to_string(kMaxRetries));
  }
  // The budget is memory_kib << 10 bytes, which must fit in a size_t.
  if (static_cast<uint64_t>(memory_kib) >
      std::numeric_limits<size_t>::max() >> 10) {
    return Status::InvalidArgument("--memory-kib is too large");
  }
  EngineOptions options;
  options.partial.k = static_cast<size_t>(k);
  options.partial.restarts = static_cast<size_t>(restarts);
  options.merge.k = static_cast<size_t>(k);
  options.resources.memory_bytes_per_operator =
      static_cast<size_t>(memory_kib) << 10;
  options.resources.cores = static_cast<size_t>(cores);
  PMKM_ASSIGN_OR_RETURN(options.exec.failure_policy,
                        ParseFailurePolicy(failure_policy));
  options.exec.io_retry.max_attempts = static_cast<size_t>(max_retries) + 1;
  options.exec.deadline_ms = static_cast<uint64_t>(deadline_ms);
  PMKM_ASSIGN_OR_RETURN(const KernelKind kind, ParseKernelKind(kernel));
  if (!KernelAvailable(kind)) {
    return Status::InvalidArgument(
        "--kernel=" + kernel + " is not available on this host (host is " +
        HostIsaDescription() + ")");
  }
  options.partial.lloyd.kernel = &GetKernel(kind);
  options.merge.lloyd.kernel = &GetKernel(kind);
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
  if (options.exec.obs.run_id.empty()) {
    options.exec.obs.run_id = GenerateRunId();
  }
  ApplyRunIdTags(options.exec.obs);
  const ScopedLogRunId log_run_id(options.exec.obs.run_id);
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
  const PhysicalPlan& plan = probed.plan;
  auto points = std::make_shared<PointChunkQueue>(
      plan.queue_capacity, ExchangeMetrics(options.exec.obs.metrics, "points"));
  // The chunk buffers: at most a full queue, one per clone and the one the
  // scan is reading are alive at once, and never more than the run has
  // chunks. They are allocated here, on the thread that starts the run,
  // so run after run they come from the same heap. Allocated by each
  // run's new scan thread, they landed in a different malloc arena run
  // after run and stayed resident in all of them.
  auto buffers = std::make_shared<ChunkBufferPool>(
      std::min(plan.queue_capacity + plan.partial_clones + 1,
               EstimateRunChunks(probed.points_per_cell,
                                 bucket_paths.size(), plan.chunk_points)),
      probed.dim, std::min(plan.chunk_points, probed.points_per_cell));
  auto scan = std::make_unique<ScanOperator>(
      split.todo, plan.chunk_points, probed.dim, points, buffers,
      options.exec.io_retry);
  return RunPlan(std::move(scan), points, buffers, options, plan,
                 checkpoint.has_value() ? &*checkpoint : nullptr,
                 std::move(split.restored), checkpoint_degraded);
}

Result<std::string> PipelineBuilder::Explain(
    const std::vector<std::string>& bucket_paths) const {
  PMKM_ASSIGN_OR_RETURN(ProbedPlan probed,
                        PlanForPaths(bucket_paths, options_));
  return ExplainPartialMergePlan(bucket_paths.size(), probed.total_points,
                                 probed.dim, options_.partial,
                                 options_.merge, probed.plan);
}

}  // namespace pmkm
