#include "stream/ops.h"

#include <chrono>
#include <functional>
#include <thread>

#include "cluster/kernels/kernel.h"
#include "common/cores.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/rolling.h"
#include "obs/trace.h"
#include "stream/checkpoint.h"

namespace pmkm {

namespace {

// Number of chunks a bucket of `total` points yields at `chunk_points`.
uint32_t NumChunks(size_t total, size_t chunk_points) {
  if (total == 0) return 0;
  return static_cast<uint32_t>((total + chunk_points - 1) / chunk_points);
}

// Payload bytes of a point chunk / centroid set (row-major doubles; a
// weighted row carries its weight too).
size_t PointBytes(size_t rows, size_t dim) {
  return rows * dim * sizeof(double);
}
size_t WeightedBytes(size_t rows, size_t dim) {
  return rows * (dim + 1) * sizeof(double);
}

// `config` with its fits counting into `counters`.
template <typename Config>
Config CountingInto(Config config, LloydCounters* counters) {
  config.lloyd.counters = counters;
  return config;
}

// Records one work-unit latency into the named rolling histogram (last-
// minute percentiles on /metrics and /statusz); no-op without a registry.
void RecordRollingUs(MetricsRegistry* metrics, const char* name,
                     double seconds) {
  if (metrics != nullptr) {
    metrics->rolling_histogram(name).Record(
        static_cast<uint64_t>(seconds * 1e6));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ChunkBufferPool

ChunkBufferPool::ChunkBufferPool(size_t capacity, size_t dim,
                                 size_t points)
    : capacity_(capacity) {
  MutexLock lock(mu_);
  free_.reserve(capacity);
  for (size_t i = 0; i < capacity; ++i) {
    free_.emplace_back(dim);
    free_.back().Reserve(points);
  }
}

Dataset ChunkBufferPool::Take() {
  MutexLock lock(mu_);
  if (free_.empty()) return Dataset();
  Dataset buffer = std::move(free_.back());
  free_.pop_back();
  return buffer;
}

void ChunkBufferPool::Give(Dataset buffer) {
  if (buffer.values().capacity() == 0) return;  // no storage to recycle
  MutexLock lock(mu_);
  if (free_.size() < capacity_) free_.push_back(std::move(buffer));
}

// ---------------------------------------------------------------------------
// ScanOperator

ScanOperator::ScanOperator(std::vector<std::string> paths,
                           size_t chunk_points, size_t dim,
                           std::shared_ptr<PointChunkQueue> out,
                           std::shared_ptr<ChunkBufferPool> buffers,
                           RetryPolicy retry)
    : Operator("scan"),
      paths_(std::move(paths)),
      chunk_points_(chunk_points),
      dim_(dim),
      out_(std::move(out)),
      buffers_(std::move(buffers)),
      retry_(retry) {
  PMKM_CHECK(chunk_points_ > 0);
  PMKM_CHECK(out_ != nullptr && buffers_ != nullptr);
  out_->AddProducer();
}

void ScanOperator::CloseOutputOnce() {
  if (!output_closed_) {
    output_closed_ = true;
    out_->CloseProducer();
  }
}

void ScanOperator::Finish() { CloseOutputOnce(); }

Status ScanOperator::EmitBucketOnce(size_t index) {
  const std::string& path = paths_[index];
  const Stopwatch bucket_watch;
  ScopedSpan span(obs().trace, "scan.bucket", "io");
  if (span.enabled()) span.AddArg("path", path);
  PMKM_ASSIGN_OR_RETURN(GridBucketReader reader,
                        GridBucketReader::Open(path));
  current_cell_ = reader.cell();
  cell_known_ = true;
  if (span.enabled()) span.AddArg("cell", reader.cell().ToString());
  // A second bucket of one cell would have its partitions pooled with the
  // first's under the same ids.
  const auto [first, inserted] = first_entry_.emplace(reader.cell(), index);
  if (!inserted && first->second != index) {
    return Status::InvalidArgument(
        "bucket " + path + " holds " + reader.cell().ToString() +
        ", which bucket " + paths_[first->second] + " already holds");
  }
  // chunk_points_ was sized from the planned D; a wider bucket would run
  // its chunks over the per-operator memory budget.
  if (reader.dim() != dim_) {
    return Status::InvalidArgument(
        "bucket " + path + " has D=" + std::to_string(reader.dim()) +
        ", but the run was planned for D=" + std::to_string(dim_));
  }
  if (reader.total_points() == 0) {
    return Status::InvalidArgument("bucket " + path + " has no points");
  }
  const uint32_t total = NumChunks(reader.total_points(), chunk_points_);
  // The buffer in hand goes back to the free list however this returns.
  struct Buffer {
    ChunkBufferPool* pool;
    Dataset chunk;
    ~Buffer() { pool->Give(std::move(chunk)); }
  } buffer{buffers_.get(), buffers_->Take()};
  Dataset& chunk = buffer.chunk;
  // Fast-forward past partitions already pushed by a previous attempt:
  // re-emitting them would trip the merge operator's duplicate-partition
  // check.
  uint32_t id = 0;
  while (id < partitions_emitted_) {
    PMKM_ASSIGN_OR_RETURN(bool more, reader.Next(chunk_points_, &chunk));
    if (!more) break;
    ++id;
  }
  for (;;) {
    PMKM_ASSIGN_OR_RETURN(bool more, reader.Next(chunk_points_, &chunk));
    if (!more) break;
    const size_t rows = chunk.size();
    const size_t bytes = PointBytes(rows, chunk.dim());
    PointChunk msg;
    msg.cell = reader.cell();
    msg.partition_id = id++;
    msg.total_partitions = total;
    msg.points = std::move(chunk);
    if (!out_->Push(std::move(msg), &mutable_stats().queue_wait_seconds)) {
      return Status::Cancelled("scan output queue cancelled");
    }
    // Taken only once the push has gone through, so a scan blocked on a
    // full queue holds no second buffer.
    chunk = buffers_->Take();
    mutable_stats().rows_in += rows;
    mutable_stats().bytes_in += bytes;
    mutable_stats().rows_out += rows;
    mutable_stats().bytes_out += bytes;
    ++partitions_emitted_;
    PublishLive();
  }
  RecordRollingUs(obs().metrics, "scan.bucket_us",
                  bucket_watch.ElapsedSeconds());
  return Status::OK();
}

Status ScanOperator::EmitBucketWithRetry(size_t index) {
  Retrier retrier(retry_, std::hash<std::string>{}(paths_[index]));
  for (;;) {
    const Status st = EmitBucketOnce(index);
    if (st.ok() || st.IsCancelled()) return st;
    if (!retrier.AllowRetry(st)) return st;
    ++mutable_stats().retries;
  }
}

Status ScanOperator::Run() {
  for (size_t index = 0; index < paths_.size(); ++index) {
    const std::string& path = paths_[index];
    partitions_emitted_ = 0;
    cell_known_ = false;
    const Status st = EmitBucketWithRetry(index);
    if (st.ok()) continue;
    // A cancelled push means the pipeline was aborted, and is never
    // quarantined. A failure leaves the producer open: the executor
    // records it before Finish() closes it, so downstream never sees a
    // bogus end-of-stream.
    if (st.IsCancelled() ||
        failure_policy() != FailurePolicy::kSkipAndContinue) {
      return st;
    }
    PMKM_LOG(Warning) << "quarantining bucket " << path << ": " << st;
    quarantined_.push_back(
        QuarantinedBucket{path, current_cell_, cell_known_, st});
    ++mutable_stats().items_dropped;
    if (cell_known_) {
      // Partitions of this cell may already be in flight; tell the merge
      // to discard the whole cell.
      PointChunk marker;
      marker.cell = current_cell_;
      marker.dropped = true;
      marker.drop_reason = st.ToString();
      if (!out_->Push(std::move(marker),
                      &mutable_stats().queue_wait_seconds)) {
        return Status::Cancelled("scan output queue cancelled");
      }
    }
  }
  CloseOutputOnce();
  return Status::OK();
}

void ScanOperator::Abort() { out_->Cancel(); }

// ---------------------------------------------------------------------------
// PartialKMeansOperator

PartialKMeansOperator::PartialKMeansOperator(
    const KMeansConfig& config, std::shared_ptr<PointChunkQueue> in,
    std::shared_ptr<ChunkBufferPool> buffers,
    std::shared_ptr<CentroidQueue> out, std::string name,
    RetryPolicy retry)
    : Operator(std::move(name)),
      partial_(CountingInto(config, &mutable_stats().lloyd)),
      in_(std::move(in)),
      buffers_(std::move(buffers)),
      out_(std::move(out)),
      retry_(retry) {
  PMKM_CHECK(in_ != nullptr && buffers_ != nullptr && out_ != nullptr);
  out_->AddProducer();
}

Status PartialKMeansOperator::Run() {
  // One clone per core from the first chunk on, not once the balancer
  // notices (DESIGN.md §10).
  const CoreLease lease;
  const LloydConfig& lloyd = partial_.config().lloyd;
  mutable_stats().kernel =
      (lloyd.kernel != nullptr ? *lloyd.kernel : GetKernel(KernelKind::kAuto))
          .name();

  for (;;) {
    std::optional<PointChunk> chunk =
        in_->Pop(&mutable_stats().queue_wait_seconds);
    if (!chunk.has_value()) {
      if (in_->cancelled()) {
        return Status::Cancelled("partial input queue cancelled");
      }
      return Status::OK();  // end of stream
    }
    if (chunk->dropped) {
      // Forward the quarantine marker to the merge.
      CentroidMessage msg;
      msg.cell = chunk->cell;
      msg.dropped = true;
      msg.drop_reason = std::move(chunk->drop_reason);
      if (!out_->Push(std::move(msg), &mutable_stats().queue_wait_seconds)) {
        return Status::Cancelled("partial output queue cancelled");
      }
      continue;
    }
    // Injected stall (deadline and cancel tests): sleep cancellably so an
    // aborted pipeline still joins promptly.
    if (uint64_t stall_ms = FaultRegistry::Global().StallMs("op.stall");
        stall_ms > 0) {
      const Stopwatch stall_watch;
      while (!in_->cancelled() &&
             stall_watch.ElapsedMillis() < static_cast<double>(stall_ms)) {
        // Fault-injected stall (op.stall), not a latency hack.
        std::this_thread::sleep_for(  // pmkm-lint: allow(sleep)
            std::chrono::milliseconds(1));
      }
    }
    mutable_stats().rows_in += chunk->points.size();
    mutable_stats().bytes_in +=
        PointBytes(chunk->points.size(), chunk->points.dim());
    // Partition id feeds the seed derivation so clones stay reproducible
    // regardless of which clone picks up which chunk.
    const uint64_t tag =
        (static_cast<uint64_t>(
             static_cast<uint32_t>(chunk->cell.lat_index))
         << 32) ^
        static_cast<uint32_t>(chunk->cell.lon_index) ^
        (static_cast<uint64_t>(chunk->partition_id) << 17);
    ScopedSpan span(obs().trace, "partial.chunk", "compute");
    if (span.enabled()) {
      span.AddArg("cell", chunk->cell.ToString());
      span.AddArg("partition", static_cast<int64_t>(chunk->partition_id));
      span.AddArg("points", chunk->points.size());
    }
    // The chunk is wrapped once, outside the retry loop: every attempt
    // fits the same points in place.
    WeightedDataset partition =
        WeightedDataset::FromUnweighted(std::move(chunk->points));
    const Stopwatch chunk_watch;
    auto compute = [&]() -> Result<PartialResult> {
      PMKM_FAULT_POINT("op.partial");
      return partial_.Cluster(partition, tag);
    };
    size_t retries_used = 0;
    Result<PartialResult> result =
        RetryCall(retry_, tag, compute, &retries_used);
    // Done with the points on every path (fit, drop or error): the scan
    // reads a later chunk into their storage.
    buffers_->Give(std::move(partition.mutable_points()));
    mutable_stats().retries += retries_used;
    if (!result.ok()) {
      if (failure_policy() == FailurePolicy::kSkipAndContinue) {
        ++mutable_stats().items_dropped;
        PMKM_LOG(Warning) << name() << ": dropping chunk "
                          << chunk->partition_id << " of cell "
                          << chunk->cell.ToString() << ": "
                          << result.status();
        CentroidMessage msg;
        msg.cell = chunk->cell;
        msg.dropped = true;
        msg.drop_reason = result.status().ToString();
        if (!out_->Push(std::move(msg),
                        &mutable_stats().queue_wait_seconds)) {
          return Status::Cancelled("partial output queue cancelled");
        }
        continue;
      }
      return result.status();
    }
    mutable_stats().kmeans_iterations += result->iterations;
    // A chunk of at most k points passes through without a fit.
    if (result->input_points > partial_.config().k) {
      mutable_stats().kmeans_restarts += partial_.config().restarts;
    }
    RecordRollingUs(obs().metrics, "partial.chunk_us",
                    chunk_watch.ElapsedSeconds());
    CentroidMessage msg;
    msg.cell = chunk->cell;
    msg.partition_id = chunk->partition_id;
    msg.total_partitions = chunk->total_partitions;
    msg.centroids = std::move(result->centroids);
    msg.input_points = result->input_points;
    const size_t out_rows = msg.centroids.size();
    const size_t out_bytes = WeightedBytes(out_rows, msg.centroids.dim());
    if (!out_->Push(std::move(msg), &mutable_stats().queue_wait_seconds)) {
      return Status::Cancelled("partial output queue cancelled");
    }
    mutable_stats().rows_out += out_rows;
    mutable_stats().bytes_out += out_bytes;
    PublishLive();
  }
}

// Closed here, not when Run returns, so a failed clone's error is recorded
// before the merge can see the end of its input.
void PartialKMeansOperator::Finish() { out_->CloseProducer(); }

void PartialKMeansOperator::Abort() {
  in_->Cancel();
  out_->Cancel();
}

// ---------------------------------------------------------------------------
// MergeKMeansOperator

MergeKMeansOperator::MergeKMeansOperator(const MergeKMeansConfig& config,
                                         std::shared_ptr<CentroidQueue> in)
    : Operator("merge-kmeans"),
      merger_(CountingInto(config, &mutable_stats().lloyd)),
      in_(std::move(in)) {
  PMKM_CHECK(in_ != nullptr);
}

void MergeKMeansOperator::SkipCell(GridCellId cell, std::string reason) {
  PMKM_LOG(Warning) << "merge: skipping cell " << cell.ToString() << ": "
                    << reason;
  skipped_.emplace(cell, std::move(reason));
  pending_.erase(cell);
  results_.erase(cell);
  ++mutable_stats().items_dropped;
}

Status MergeKMeansOperator::MergeCell(GridCellId cell) {
  PendingCell& pc = pending_.at(cell);
  WeightedDataset pooled(pc.dim);
  for (const auto& [id, part] : pc.parts) {
    pooled.AppendAll(part);
  }
  ScopedSpan span(obs().trace, "merge.cell", "compute");
  if (span.enabled()) {
    span.AddArg("cell", cell.ToString());
    span.AddArg("pooled_centroids", pooled.size());
  }
  const Stopwatch watch;
  PMKM_ASSIGN_OR_RETURN(ClusteringModel model, merger_.Merge(pooled));
  RecordRollingUs(obs().metrics, "merge.cell_us", watch.ElapsedSeconds());
  mutable_stats().kmeans_iterations += model.iterations;
  // One fit, unless the pool (at most k centroids) passed through.
  if (pooled.size() > merger_.config().k) ++mutable_stats().kmeans_restarts;
  mutable_stats().rows_out += model.centroids.size();
  mutable_stats().bytes_out +=
      WeightedBytes(model.centroids.size(), model.centroids.dim());
  CellClustering result;
  result.cell = cell;
  result.pooled_centroids = pooled.size();
  result.input_points = pc.input_points;
  result.merge_seconds = watch.ElapsedSeconds();
  result.model = std::move(model);
  // Journal before publishing: a cell is either durable in the checkpoint
  // or will be recomputed on resume — never silently half-remembered.
  if (checkpoint_ != nullptr && !checkpoint_failed_) {
    const Status st = checkpoint_->AppendCellComplete(result);
    if (!st.ok()) {
      if (failure_policy() != FailurePolicy::kSkipAndContinue) return st;
      // skip: the run is more valuable than its journal. Keep
      // clustering, but stop pretending progress is durable.
      PMKM_LOG(Warning) << "checkpoint append failed for "
                        << cell.ToString()
                        << "; disabling checkpointing for this run: " << st;
      checkpoint_failed_ = true;
    }
  }
  results_[cell] = std::move(result);
  pending_.erase(cell);
  return Status::OK();
}

Status MergeKMeansOperator::AddPartition(CentroidMessage* msg) {
  mutable_stats().rows_in += msg->centroids.size();
  mutable_stats().bytes_in +=
      WeightedBytes(msg->centroids.size(), msg->centroids.dim());
  PendingCell& pc = pending_[msg->cell];
  if (!pc.initialized) {
    pc.dim = msg->centroids.dim();
    pc.expected = msg->total_partitions;
    pc.initialized = true;
  } else if (pc.expected != msg->total_partitions) {
    return Status::Internal("inconsistent partition count for cell " +
                            msg->cell.ToString());
  }
  if (!pc.parts.emplace(msg->partition_id, std::move(msg->centroids))
           .second) {
    return Status::Internal("duplicate partition " +
                            std::to_string(msg->partition_id) +
                            " for cell " + msg->cell.ToString());
  }
  pc.input_points += msg->input_points;
  if (pc.parts.size() == pc.expected) {
    PMKM_RETURN_NOT_OK(MergeCell(msg->cell));
    PublishLive();
  }
  return Status::OK();
}

Status MergeKMeansOperator::Run() {
  const LloydConfig& lloyd = merger_.config().lloyd;
  mutable_stats().kernel =
      (lloyd.kernel != nullptr ? *lloyd.kernel : GetKernel(KernelKind::kAuto))
          .name();
  const bool skip = failure_policy() == FailurePolicy::kSkipAndContinue;
  for (;;) {
    std::optional<CentroidMessage> msg =
        in_->Pop(&mutable_stats().queue_wait_seconds);
    if (!msg.has_value()) {
      if (in_->cancelled()) {
        return Status::Cancelled("merge input queue cancelled");
      }
      break;  // end of stream
    }
    // Stragglers of a skipped cell, a second dropped marker included (one
    // per failed chunk): the cell is logged and counted once, with its
    // first reason.
    if (skipped_.count(msg->cell) > 0) continue;
    if (msg->dropped) {
      // Quarantine: discard everything about this cell, even a clustering
      // that already completed from (possibly corrupt) earlier partitions.
      SkipCell(msg->cell, msg->drop_reason.empty() ? "dropped upstream"
                                                   : msg->drop_reason);
      continue;
    }
    // Under skip a failed cell is recorded and the merge keeps draining its
    // input: returning would leave the partial clones and the scan blocked
    // on full queues.
    if (Status st = AddPartition(&*msg); !st.ok()) {
      if (!skip) return st;
      SkipCell(msg->cell, st.ToString());
    }
  }
  if (!pending_.empty()) {
    if (!skip) {
      return Status::Internal(
          "stream ended with " + std::to_string(pending_.size()) +
          " incomplete cell(s)");
    }
    while (!pending_.empty()) {
      const auto& [cell, pc] = *pending_.begin();
      SkipCell(cell, "incomplete at end of stream (" +
                         std::to_string(pc.parts.size()) + "/" +
                         std::to_string(pc.expected) +
                         " partitions arrived)");
    }
  }
  return Status::OK();
}

void MergeKMeansOperator::Abort() { in_->Cancel(); }

}  // namespace pmkm
