#include "obs/flusher.h"

#include <chrono>

#include "common/file.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pmkm {
namespace obs {

SnapshotFlusher::~SnapshotFlusher() { (void)Stop(); }

Status SnapshotFlusher::Start() {
  if (options_.interval_ms <= 0) {
    return Status::InvalidArgument("flush interval must be positive");
  }
  if (options_.metrics_json_path.empty() &&
      options_.metrics_prom_path.empty() &&
      options_.trace_json_path.empty()) {
    return Status::InvalidArgument("snapshot flusher has no destinations");
  }
  {
    MutexLock lock(mu_);
    if (running_) {
      return Status::FailedPrecondition("snapshot flusher already running");
    }
    running_ = true;
    stop_requested_ = false;
  }
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

Status SnapshotFlusher::Stop() {
  {
    MutexLock lock(mu_);
    if (!running_) return Status::OK();
    stop_requested_ = true;
    cv_.NotifyAll();
  }
  if (thread_.joinable()) thread_.join();
  // Final flush after the join so Stop() leaves the artifacts current.
  Status st = FlushNow();
  MutexLock lock(mu_);
  running_ = false;
  return st;
}

void SnapshotFlusher::Loop() {
  const auto interval = std::chrono::milliseconds(options_.interval_ms);
  while (true) {
    {
      MutexLock lock(mu_);
      PMKM_SCHED_POINT("flusher.tick");
      if (!stop_requested_) {
        (void)cv_.WaitFor(mu_, interval);
      }
      if (stop_requested_) return;  // Stop() does the final flush
    }
    (void)FlushNow();  // keep flushing on transient I/O errors
    MutexLock lock(mu_);
    ++flush_count_;
  }
}

Status SnapshotFlusher::FlushNow() const {
  Status first = Status::OK();
  auto keep_first = [&first](Status s) {
    if (first.ok() && !s.ok()) first = std::move(s);
  };
  if (metrics_ != nullptr) {
    if (!options_.metrics_json_path.empty()) {
      keep_first(AtomicWriteFile(options_.metrics_json_path,
                                 metrics_->ToJson().Dump(2) + "\n"));
    }
    if (!options_.metrics_prom_path.empty()) {
      keep_first(AtomicWriteFile(options_.metrics_prom_path,
                                 metrics_->ToPrometheusText()));
    }
  }
  if (trace_ != nullptr && !options_.trace_json_path.empty()) {
    keep_first(trace_->WriteJson(options_.trace_json_path));
  }
  return first;
}

}  // namespace obs
}  // namespace pmkm
