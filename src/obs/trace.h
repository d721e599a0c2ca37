// TraceRecorder + ScopedSpan: operator-level tracing in the Chrome
// `trace_event` JSON format, so a pipeline run opens directly in
// chrome://tracing or Perfetto (load the file produced by
// `pmkm_cluster --trace_out=run.trace.json`).
//
// Usage:
//   TraceRecorder tracer;
//   {
//     ScopedSpan span(&tracer, "partial.chunk", "compute");
//     span.AddArg("cell", cell.ToString());
//     ... work ...
//   }  // span records a complete ("ph":"X") event on destruction
//
// A null recorder disables a span entirely — construction does not even
// read the clock — which is how the pipeline stays zero-cost with tracing
// off. Events append under a mutex; spans are per-bucket/chunk/cell
// (hundreds to thousands per run), far off any hot path.
//
// Long-running processes cap the recorder with SetCapacity(n): the event
// store becomes a ring that keeps the most recent n spans (dropped() counts
// the overwritten ones). The debug server's /tracez serves Recent(n) from
// that ring.

#ifndef PMKM_OBS_TRACE_H_
#define PMKM_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/status.h"
#include "obs/json.h"

namespace pmkm {

/// One recorded complete event (Chrome trace "ph":"X").
struct TraceEvent {
  std::string name;
  std::string category;
  uint64_t start_us = 0;  // relative to the recorder's origin
  uint64_t dur_us = 0;
  uint32_t tid = 0;
  std::vector<std::pair<std::string, JsonValue>> args;
};

/// Thread-safe in-memory sink for trace events.
class TraceRecorder {
 public:
  TraceRecorder() : origin_(std::chrono::steady_clock::now()) {}

  /// Microseconds since the recorder was created.
  uint64_t NowMicros() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - origin_)
            .count());
  }

  void Add(TraceEvent event) PMKM_EXCLUDES(mu_);

  /// Bounds the event store to a ring of the most recent `max_events`
  /// spans (0 = unbounded, the default). Shrinking an over-full store
  /// keeps the newest events.
  void SetCapacity(size_t max_events) PMKM_EXCLUDES(mu_);

  /// Events overwritten because the ring was full.
  uint64_t dropped() const PMKM_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return dropped_;
  }

  size_t size() const PMKM_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return events_.size();
  }

  /// All retained events, oldest first.
  std::vector<TraceEvent> Events() const PMKM_EXCLUDES(mu_);

  /// The most recent `n` events, oldest first.
  std::vector<TraceEvent> Recent(size_t n) const PMKM_EXCLUDES(mu_);

  /// Tags ToJson with a top-level "run_id" (empty = untagged).
  void SetRunId(const std::string& run_id) PMKM_EXCLUDES(mu_);

  /// {"traceEvents": [...], "displayTimeUnit": "ms"} plus "run_id" when
  /// set.
  JsonValue ToJson() const PMKM_EXCLUDES(mu_);

  /// Publishes ToJson() at `path` through AtomicWriteFile: a failed
  /// write leaves the previous file as it was.
  Status WriteJson(const std::string& path) const PMKM_EXCLUDES(mu_);

 private:
  // Small dense id per thread; Chrome renders one row per tid.
  uint32_t TidLocked(std::thread::id id) PMKM_REQUIRES(mu_);

  // Retained events, oldest first (materializes the ring order).
  std::vector<TraceEvent> OrderedLocked(size_t n) const PMKM_REQUIRES(mu_);

  mutable Mutex mu_;
  // Unbounded: plain append. Bounded: a ring where slot (total_ %
  // capacity_) is the next write position once full.
  std::vector<TraceEvent> events_ PMKM_GUARDED_BY(mu_);
  size_t capacity_ PMKM_GUARDED_BY(mu_) = 0;
  uint64_t total_ PMKM_GUARDED_BY(mu_) = 0;
  uint64_t dropped_ PMKM_GUARDED_BY(mu_) = 0;
  std::string run_id_ PMKM_GUARDED_BY(mu_);
  std::map<std::thread::id, uint32_t> tids_ PMKM_GUARDED_BY(mu_);
  std::chrono::steady_clock::time_point origin_;
};

/// RAII span: records a complete event covering its own lifetime. Safe to
/// construct with a null recorder (fully disabled, no clock read).
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* recorder, std::string name,
             std::string category = "op")
      : recorder_(recorder) {
    if (recorder_ == nullptr) return;
    event_.name = std::move(name);
    event_.category = std::move(category);
    event_.start_us = recorder_->NowMicros();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (recorder_ == nullptr) return;
    event_.dur_us = recorder_->NowMicros() - event_.start_us;
    recorder_->Add(std::move(event_));
  }

  bool enabled() const { return recorder_ != nullptr; }

  /// Attaches a key/value argument shown in the trace viewer's detail
  /// pane. No-op when disabled.
  void AddArg(const std::string& key, JsonValue value) {
    if (recorder_ == nullptr) return;
    event_.args.emplace_back(key, std::move(value));
  }

 private:
  TraceRecorder* recorder_;
  TraceEvent event_;
};

}  // namespace pmkm

#endif  // PMKM_OBS_TRACE_H_
