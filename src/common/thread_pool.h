// Fixed-size thread pool backing operator clones in the stream engine and
// the parallel partial-k-means driver.

#ifndef PMKM_COMMON_THREAD_POOL_H_
#define PMKM_COMMON_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/schedcheck/thread.h"

namespace pmkm {

/// A fixed pool of worker threads executing submitted tasks FIFO.
///
/// Shutdown() (or destruction) drains already-submitted tasks before the
/// workers exit; tasks submitted after Shutdown() are rejected by returning
/// an invalid future.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn`; the returned future resolves with its result.
  template <typename Fn>
  std::future<std::invoke_result_t<Fn>> Submit(Fn&& fn) PMKM_EXCLUDES(mu_) {
    using R = std::invoke_result_t<Fn>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> fut = task->get_future();
    {
      MutexLock lock(mu_);
      if (shutdown_) return std::future<R>();
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.NotifyOne();
    return fut;
  }

  /// Blocks until every submitted task has finished.
  void WaitIdle() PMKM_EXCLUDES(mu_);

  /// Stops accepting tasks and joins the workers after draining the queue.
  void Shutdown() PMKM_EXCLUDES(mu_);

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop() PMKM_EXCLUDES(mu_);

  Mutex mu_;
  CondVar cv_;
  CondVar idle_cv_;
  std::deque<std::function<void()>> queue_ PMKM_GUARDED_BY(mu_);
  // Written once in the constructor before any concurrent access; joined in
  // Shutdown. Not guarded: after construction the vector itself is
  // immutable (only the threads it holds run). schedcheck::Thread is a
  // plain std::thread outside a scheduler episode; inside one, workers
  // come under deterministic schedule control.
  std::vector<schedcheck::Thread> workers_;
  size_t active_ PMKM_GUARDED_BY(mu_) = 0;
  bool shutdown_ PMKM_GUARDED_BY(mu_) = false;
};

}  // namespace pmkm

#endif  // PMKM_COMMON_THREAD_POOL_H_
