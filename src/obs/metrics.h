// MetricsRegistry: the process/run-level metric store behind
// `pmkm_cluster --metrics_out` and the EXPLAIN ANALYZE substrate.
//
// Three instrument kinds, all lock-free on the hot path (a registered
// instrument is a stable pointer; recording is relaxed atomics only):
//   Counter   — monotonically increasing uint64 (rows scanned, retries).
//   Gauge     — last-set int64 plus its high-water mark (queue depth).
//   Histogram — log₂-bucketed distribution with approximate
//               p50/p95/p99/p99.9 and exact min/max (queue block times,
//               span durations). Bucket b covers [2^(b-1), 2^b); values
//               are unit-agnostic doubles, by convention microseconds for
//               "_us"-suffixed metrics.
//
// The time-windowed variant (RollingHistogram, obs/rolling.h) layers a
// ring of per-second slots over the same log₂ buckets so /metrics
// and /statusz can report last-minute percentiles; the registry owns them
// alongside the cumulative instruments.
//
// Exports: JSON (machine-readable run stats, parsed back by
// `pmkm_inspect metrics`) and Prometheus text exposition format
// (`# HELP`/`# TYPE` lines, escaped label values).
//
// Overhead budget (DESIGN.md §9): instruments are only consulted through
// pointers that are null when observability is off, so a disabled pipeline
// pays one pointer test per potential record.

#ifndef PMKM_OBS_METRICS_H_
#define PMKM_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/annotations.h"
#include "obs/json.h"

namespace pmkm {

/// Monotonic event counter. Thread-safe.
class Counter {
 public:
  void Increment(uint64_t n = 1) PMKM_WAITFREE {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written value plus high-water mark. Thread-safe.
class Gauge {
 public:
  void Set(int64_t v) PMKM_WAITFREE {
    value_.store(v, std::memory_order_relaxed);
    UpdateMax(v);
  }
  void Add(int64_t delta) PMKM_WAITFREE {
    UpdateMax(value_.fetch_add(delta, std::memory_order_relaxed) + delta);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  int64_t max() const { return max_.load(std::memory_order_relaxed); }

 private:
  void UpdateMax(int64_t v) {
    int64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v,
                                       std::memory_order_relaxed)) {
    }
  }

  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> max_{0};
};

/// Log₂-bucketed distribution. Thread-safe; Record is wait-free.
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  void Record(double value) PMKM_WAITFREE;

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;
  double max() const;

  /// Approximate percentile (p in [0, 100]) by linear interpolation
  /// inside the covering bucket; exact at the recorded min/max ends.
  double Percentile(double p) const;

  /// Consistent-enough copy for export (individual loads are relaxed).
  struct Snapshot {
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;   // exact (CAS-tracked, not bucket-derived)
    double max = 0.0;   // exact
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;  // p99.9, the SLO tail quantile
  };
  Snapshot TakeSnapshot() const;

  // Bucket geometry, shared with RollingHistogram (obs/rolling.h) so the
  // windowed variant merges slots in the exact same bucket space.
  static size_t BucketIndex(double v);
  static double BucketLowerBound(size_t b);
  static double BucketUpperBound(size_t b);

  /// Percentile over an externally merged bucket array (same geometry),
  /// clamped to the observed [min, max] so p0/p100 are exact. `count`
  /// must equal the sum of `buckets`.
  static double PercentileFromBuckets(
      const std::array<uint64_t, kBuckets>& buckets, uint64_t count,
      double p, double observed_min, double observed_max);

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // min/max as atomics updated by CAS; initialized lazily on first Record.
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

class RollingHistogram;

/// Escapes a Prometheus label value: backslash, double-quote and newline
/// get backslash-escaped per the text exposition format.
std::string PromEscapeLabelValue(const std::string& value);

/// Thread-safe name → instrument registry. Instruments live as long as the
/// registry and their addresses are stable, so hot paths resolve a name
/// once and record through the pointer ever after.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  Counter& counter(const std::string& name) PMKM_EXCLUDES(mu_);
  Gauge& gauge(const std::string& name) PMKM_EXCLUDES(mu_);
  Histogram& histogram(const std::string& name) PMKM_EXCLUDES(mu_);

  /// Windowed histogram (obs/rolling.h). `window_seconds` applies only on
  /// first registration of the name.
  RollingHistogram& rolling_histogram(const std::string& name,
                                      uint64_t window_seconds = 60)
      PMKM_EXCLUDES(mu_);

  /// Tags every export with the run id: JSON gains a "run_id" field and
  /// the Prometheus text gains `pmkm_run_info{run_id="..."} 1`.
  void SetRunId(const std::string& run_id) PMKM_EXCLUDES(mu_);

  /// {"counters": {...}, "gauges": {...}, "histograms": {...},
  ///  "rolling": {...}} plus "run_id" when set.
  JsonValue ToJson() const PMKM_EXCLUDES(mu_);

  /// Prometheus text exposition format; metric names are prefixed and
  /// sanitized ([a-zA-Z0-9_] only). Histograms export as summaries;
  /// rolling histograms export windowed quantiles (window="60s" label)
  /// with cumulative _count/_sum so scrapes stay monotonic.
  std::string ToPrometheusText(const std::string& prefix = "pmkm") const
      PMKM_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  // The maps are guarded; the instruments they point at are internally
  // thread-safe (atomics), so recording through a previously resolved
  // pointer takes no lock.
  std::map<std::string, std::unique_ptr<Counter>> counters_
      PMKM_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      PMKM_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      PMKM_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<RollingHistogram>>
      rolling_histograms_ PMKM_GUARDED_BY(mu_);
  std::string run_id_ PMKM_GUARDED_BY(mu_);
};

}  // namespace pmkm

#endif  // PMKM_OBS_METRICS_H_
