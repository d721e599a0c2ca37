// SnapshotFlusher: the one writer of a run's observability artifacts
// (metrics JSON, Prometheus text, trace JSON). While the run executes it
// flushes them periodically, so a run killed mid-flight — OOM kill,
// SIGKILL, power loss — still leaves a recent snapshot on disk; Stop()
// (or FlushNow(), when no thread runs) writes the final state, on the
// success and the failure path alike (DESIGN.md §14).
//
// Every flush publishes through AtomicWriteFile (common/file.h), so
// readers never observe a half-written artifact and a failed write keeps
// the previous snapshot.
//
// Usage (pmkm_cluster --flush_interval_ms):
//   SnapshotFlusher::Options opt;
//   opt.metrics_json_path = "run.metrics.json";
//   SnapshotFlusher flusher(&registry, &tracer, opt);
//   flusher.Start();
//   ... run pipeline ...
//   flusher.Stop();  // final flush + join

#ifndef PMKM_OBS_FLUSHER_H_
#define PMKM_OBS_FLUSHER_H_

#include <string>
#include <thread>
#include <utility>

#include "common/annotations.h"
#include "common/status.h"

namespace pmkm {

class MetricsRegistry;
class TraceRecorder;

namespace obs {

class SnapshotFlusher {
 public:
  struct Options {
    /// Flush period. The first flush happens one interval after Start.
    int interval_ms = 1000;
    /// Destination paths; an empty path skips that artifact.
    std::string metrics_json_path;
    std::string metrics_prom_path;
    std::string trace_json_path;
  };

  /// Either sink may be null (its artifacts are skipped). Non-owning; the
  /// flusher must be stopped before the sinks are destroyed.
  SnapshotFlusher(const MetricsRegistry* metrics, const TraceRecorder* trace,
                  Options options)
      : metrics_(metrics), trace_(trace), options_(std::move(options)) {}
  ~SnapshotFlusher();

  SnapshotFlusher(const SnapshotFlusher&) = delete;
  SnapshotFlusher& operator=(const SnapshotFlusher&) = delete;

  /// Spawns the background flush thread. Fails if already running, the
  /// interval is not positive, or no destination path is set.
  Status Start() PMKM_EXCLUDES(mu_);

  /// Stops and joins the thread, then flushes once more and returns that
  /// final flush's status. Idempotent (OK when not running); also called
  /// by the destructor.
  Status Stop() PMKM_EXCLUDES(mu_);

  /// One synchronous flush of every configured artifact. Thread-safe;
  /// callable whether or not the background thread runs (a run without
  /// periodic flushing writes its artifacts with this). Returns the first
  /// error, but attempts every artifact regardless.
  Status FlushNow() const;

  /// Background flushes completed so far (test hook).
  uint64_t flush_count() const PMKM_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return flush_count_;
  }

  bool running() const PMKM_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return running_;
  }

 private:
  void Loop() PMKM_EXCLUDES(mu_);

  const MetricsRegistry* const metrics_;
  const TraceRecorder* const trace_;
  const Options options_;

  mutable Mutex mu_;
  CondVar cv_;
  bool running_ PMKM_GUARDED_BY(mu_) = false;
  bool stop_requested_ PMKM_GUARDED_BY(mu_) = false;
  uint64_t flush_count_ PMKM_GUARDED_BY(mu_) = 0;

  std::thread thread_;
};

}  // namespace obs
}  // namespace pmkm

#endif  // PMKM_OBS_FLUSHER_H_
