// BoundedBlockingQueue: the "smart queue" connecting producer and consumer
// operators (paper Fig. 3). Bounded capacity gives back-pressure so a fast
// producer cannot overflow memory; producer reference counting closes the
// queue when the last clone of the upstream operator finishes.
//
// Observability: the queue always tracks its high-water mark and total
// pushed count (one compare and one increment under the mutex it already
// holds). Its instruments, a depth gauge and block-time histograms, are
// fixed at construction. The queue is the one clock for its waits: a Push
// or Pop that has to block reads the clock before and after the wait and
// feeds that one reading to the histogram (if any) and to the caller's
// wait total (if given). A call that does not block reads no clock.
//
// Concurrency contract: every mutable field is PMKM_GUARDED_BY(mu_) and
// verified by Clang thread-safety analysis (DESIGN.md §11).

#ifndef PMKM_STREAM_QUEUE_H_
#define PMKM_STREAM_QUEUE_H_

#include <deque>
#include <optional>

#include "common/annotations.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"

namespace pmkm {

/// Optional instruments for one queue, fixed at construction; any pointer
/// may be null.
struct QueueMetrics {
  Gauge* depth = nullptr;             ///< current depth (max = high water)
  Histogram* push_block_us = nullptr; ///< producer time blocked on full
  Histogram* pop_wait_us = nullptr;   ///< consumer time blocked on empty
};

/// MPMC bounded blocking queue with producer-count close semantics.
template <typename T>
class BoundedBlockingQueue {
 public:
  explicit BoundedBlockingQueue(size_t capacity, QueueMetrics metrics = {})
      : capacity_(capacity), metrics_(metrics) {
    PMKM_CHECK(capacity >= 1);
  }

  /// Registers one producer; must be balanced by CloseProducer(). A queue
  /// starts with zero producers, so register before any Push.
  void AddProducer() PMKM_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    ++producers_;
  }

  /// Signals that one producer is done. When the last producer closes, all
  /// blocked consumers wake and Pop drains the remainder then returns
  /// nullopt.
  void CloseProducer() PMKM_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    PMKM_CHECK(producers_ > 0);
    if (--producers_ == 0) not_empty_.NotifyAll();
  }

  /// Blocks while full; returns false if the queue was cancelled. Adds
  /// the seconds it blocked to `*waited` when given.
  bool Push(T item, double* waited = nullptr) PMKM_EXCLUDES(mu_) {
    PMKM_SCHED_POINT("queue.push");
    MutexLock lock(mu_);
    if (items_.size() >= capacity_ && !cancelled_) {
      const Stopwatch blocked;
      while (items_.size() >= capacity_ && !cancelled_) {
        not_full_.Wait(mu_);
      }
      RecordWait(blocked, metrics_.push_block_us, waited);
    }
    if (cancelled_) return false;
    items_.push_back(std::move(item));
    ++total_pushed_;
    if (items_.size() > high_water_) high_water_ = items_.size();
    if (metrics_.depth != nullptr) {
      metrics_.depth->Set(static_cast<int64_t>(items_.size()));
    }
    not_empty_.NotifyOne();
    return true;
  }

  /// Blocks while empty and producers remain; nullopt = end of stream (all
  /// producers closed and queue drained) or cancelled. Adds the seconds
  /// it blocked to `*waited` when given.
  std::optional<T> Pop(double* waited = nullptr) PMKM_EXCLUDES(mu_) {
    PMKM_SCHED_POINT("queue.pop");
    MutexLock lock(mu_);
    if (items_.empty() && producers_ > 0 && !cancelled_) {
      const Stopwatch blocked;
      while (items_.empty() && producers_ > 0 && !cancelled_) {
        not_empty_.Wait(mu_);
      }
      RecordWait(blocked, metrics_.pop_wait_us, waited);
    }
    if (cancelled_ || items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    if (metrics_.depth != nullptr) {
      metrics_.depth->Set(static_cast<int64_t>(items_.size()));
    }
    not_full_.NotifyOne();
    return item;
  }

  /// Aborts the stream: wakes everyone, Push/Pop fail from now on. Used to
  /// tear a pipeline down on operator error.
  void Cancel() PMKM_EXCLUDES(mu_) {
    PMKM_SCHED_POINT("queue.cancel");
    MutexLock lock(mu_);
    cancelled_ = true;
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }

  bool cancelled() const PMKM_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return cancelled_;
  }

  size_t size() const PMKM_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return items_.size();
  }

  /// Deepest the queue has ever been: how hard back-pressure was leaned
  /// on. Capacity-bounded by construction.
  size_t HighWaterMark() const PMKM_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return high_water_;
  }

  /// Total items accepted by Push over the queue's lifetime.
  uint64_t total_pushed() const PMKM_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return total_pushed_;
  }

  size_t capacity() const { return capacity_; }

 private:
  // One reading of the blocked time, into the histogram and the caller's
  // total alike.
  static void RecordWait(const Stopwatch& blocked, Histogram* histogram,
                         double* waited) {
    const double seconds = blocked.ElapsedSeconds();
    if (histogram != nullptr) histogram->Record(seconds * 1e6);
    if (waited != nullptr) *waited += seconds;
  }

  const size_t capacity_;
  const QueueMetrics metrics_;
  mutable Mutex mu_;
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> items_ PMKM_GUARDED_BY(mu_);
  size_t producers_ PMKM_GUARDED_BY(mu_) = 0;
  bool cancelled_ PMKM_GUARDED_BY(mu_) = false;
  size_t high_water_ PMKM_GUARDED_BY(mu_) = 0;
  uint64_t total_pushed_ PMKM_GUARDED_BY(mu_) = 0;
};

}  // namespace pmkm

#endif  // PMKM_STREAM_QUEUE_H_
