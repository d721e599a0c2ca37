#include "obs/rolling.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

namespace pmkm {

namespace {

// CAS-fold a double atomic toward the smaller/larger value.
void FoldMin(std::atomic<double>* slot, double v) {
  double seen = slot->load(std::memory_order_relaxed);
  while (v < seen && !slot->compare_exchange_weak(
                         seen, v, std::memory_order_relaxed)) {
  }
}

void FoldMax(std::atomic<double>* slot, double v) {
  double seen = slot->load(std::memory_order_relaxed);
  while (v > seen && !slot->compare_exchange_weak(
                         seen, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

uint64_t RollingHistogram::NowTick() {
  static const std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::steady_clock::now() - origin)
          .count());
}

RollingHistogram::RollingHistogram(uint64_t window_seconds)
    : window_seconds_(std::max<uint64_t>(1, window_seconds)),
      slots_(std::max<uint64_t>(1, window_seconds)) {}

void RollingHistogram::RecordAt(double value, uint64_t tick) {
  if (std::isnan(value)) return;
  total_.Record(value);
  Slot& slot = SlotFor(tick);
  uint64_t epoch = slot.epoch.load(std::memory_order_acquire);
  if (epoch != tick) {
    if (slot.epoch.compare_exchange_strong(epoch, tick,
                                           std::memory_order_acq_rel)) {
      // We claimed the slot for this second: clear the stale contents.
      // A racing recorder that already resolved the same tick may record
      // concurrently with this reset; the loss is bounded by one slot
      // boundary (see header).
      slot.count.store(0, std::memory_order_relaxed);
      slot.sum.store(0.0, std::memory_order_relaxed);
      slot.min.store(std::numeric_limits<double>::infinity(),
                     std::memory_order_relaxed);
      slot.max.store(-std::numeric_limits<double>::infinity(),
                     std::memory_order_relaxed);
      for (auto& b : slot.buckets) {
        b.store(0, std::memory_order_relaxed);
      }
    } else if (epoch != tick) {
      // A recorder from a *newer* second claimed the slot first; this
      // sample's second has already rotated out of the ring. Drop it from
      // the window (it is still in total_).
      return;
    }
  }
  slot.buckets[Histogram::BucketIndex(value)].fetch_add(
      1, std::memory_order_relaxed);
  slot.count.fetch_add(1, std::memory_order_relaxed);
  slot.sum.fetch_add(value, std::memory_order_relaxed);
  FoldMin(&slot.min, value);
  FoldMax(&slot.max, value);
}

RollingHistogram::Snapshot RollingHistogram::SnapshotAt(
    uint64_t tick) const {
  Snapshot out;
  out.window_seconds = window_seconds_;
  std::array<uint64_t, Histogram::kBuckets> merged{};
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  const uint64_t oldest =
      tick >= window_seconds_ - 1 ? tick - (window_seconds_ - 1) : 0;
  for (const Slot& slot : slots_) {
    const uint64_t epoch = slot.epoch.load(std::memory_order_acquire);
    if (epoch == kEmpty || epoch < oldest || epoch > tick) continue;
    const uint64_t n = slot.count.load(std::memory_order_relaxed);
    if (n == 0) continue;
    out.count += n;
    out.sum += slot.sum.load(std::memory_order_relaxed);
    lo = std::min(lo, slot.min.load(std::memory_order_relaxed));
    hi = std::max(hi, slot.max.load(std::memory_order_relaxed));
    for (size_t b = 0; b < Histogram::kBuckets; ++b) {
      merged[b] += slot.buckets[b].load(std::memory_order_relaxed);
    }
  }
  if (out.count == 0) return out;
  if (!std::isfinite(lo)) lo = 0.0;
  if (!std::isfinite(hi)) hi = 0.0;
  out.min = lo;
  out.max = hi;
  out.p50 =
      Histogram::PercentileFromBuckets(merged, out.count, 50.0, lo, hi);
  out.p95 =
      Histogram::PercentileFromBuckets(merged, out.count, 95.0, lo, hi);
  out.p99 =
      Histogram::PercentileFromBuckets(merged, out.count, 99.0, lo, hi);
  out.p999 =
      Histogram::PercentileFromBuckets(merged, out.count, 99.9, lo, hi);
  return out;
}

}  // namespace pmkm
