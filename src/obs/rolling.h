// Time-windowed metrics: RollingHistogram.
//
// It layers a ring of per-second slots over the cumulative instruments in
// obs/metrics.h, so `/metrics` and `/statusz` can answer "what was the
// p99 over the *last minute*" instead of "since process start" — the
// primitive the SLO work asserts against. Each slot is tagged with the
// epoch second it currently holds; a recorder arriving in a new second
// CAS-claims the slot and zeroes it before recording. Readers merge every
// slot whose epoch falls inside the window.
//
// Consistency: recording is relaxed atomics only (same budget as
// Histogram::Record). A reader racing a slot reset can see a partially
// cleared slot, and a recorder racing the reset can land a sample in a
// slot another thread is zeroing — both smear the window by at most a few
// samples at a second boundary, which is acceptable for monitoring
// quantiles and documented in DESIGN.md §14. The cumulative totals
// (total()) are never reset, so Prometheus _count/_sum stay monotonic
// across scrapes.
//
// Testability: Record()/TakeSnapshot() read a coarse steady-clock second;
// RecordAt()/SnapshotAt() take the tick explicitly so unit tests drive
// window expiry deterministically without sleeping.

#ifndef PMKM_OBS_ROLLING_H_
#define PMKM_OBS_ROLLING_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"

namespace pmkm {

/// Histogram over a sliding window of the last `window_seconds` seconds,
/// plus a cumulative Histogram since construction. Thread-safe; Record is
/// lock-free.
class RollingHistogram {
 public:
  explicit RollingHistogram(uint64_t window_seconds = 60);

  uint64_t window_seconds() const { return window_seconds_; }

  void Record(double value) PMKM_WAITFREE { RecordAt(value, NowTick()); }
  void RecordAt(double value, uint64_t tick) PMKM_WAITFREE;

  /// Windowed view. min/max/quantiles cover only samples recorded in the
  /// last `window_seconds` seconds; count/sum likewise.
  struct Snapshot {
    uint64_t window_seconds = 0;
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
  };
  Snapshot TakeSnapshot() const { return SnapshotAt(NowTick()); }
  Snapshot SnapshotAt(uint64_t tick) const;

  /// Cumulative distribution since construction (never reset).
  const Histogram& total() const { return total_; }

  /// Coarse monotonic clock, in whole seconds since process start.
  static uint64_t NowTick();

 private:
  struct Slot {
    // The tick this slot currently holds; kEmpty until first claimed.
    std::atomic<uint64_t> epoch{kEmpty};
    std::atomic<uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{0.0};
    std::atomic<double> max{0.0};
    std::array<std::atomic<uint64_t>, Histogram::kBuckets> buckets{};
  };
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  Slot& SlotFor(uint64_t tick) {
    return slots_[tick % slots_.size()];
  }

  const uint64_t window_seconds_;
  std::vector<Slot> slots_;  // one per second of window; sized at ctor
  Histogram total_;
};

}  // namespace pmkm

#endif  // PMKM_OBS_ROLLING_H_
