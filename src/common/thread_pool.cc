#include "common/thread_pool.h"

#include <algorithm>

namespace pmkm {

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); }, "pool-worker");
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) {
        // shutdown_ is set and the queue is drained.
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      MutexLock lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.NotifyAll();
    }
  }
}

void ThreadPool::WaitIdle() {
  MutexLock lock(mu_);
  while (!queue_.empty() || active_ != 0) idle_cv_.Wait(mu_);
}

void ThreadPool::Shutdown() {
  {
    MutexLock lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (auto& w : workers_) {
    if (w.Joinable()) w.Join();
  }
}

}  // namespace pmkm
