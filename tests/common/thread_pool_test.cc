#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace pmkm {
namespace {

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ReturnsValuesThroughFutures) {
  ThreadPool pool(2);
  auto f1 = pool.Submit([] { return 6 * 7; });
  auto f2 = pool.Submit([] { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&] { done.fetch_add(1); });
    }
    pool.Shutdown();
  }
  EXPECT_EQ(done.load(), 10);
}

TEST(ThreadPoolTest, SubmitAfterShutdownIsRejected) {
  ThreadPool pool(1);
  pool.Shutdown();
  auto f = pool.Submit([] { return 1; });
  EXPECT_FALSE(f.valid());
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  EXPECT_EQ(pool.Submit([] { return 3; }).get(), 3);
}

TEST(ThreadPoolTest, ParallelSumMatchesSerial) {
  ThreadPool pool(4);
  std::vector<std::future<long>> futures;
  for (int chunk = 0; chunk < 16; ++chunk) {
    futures.push_back(pool.Submit([chunk] {
      long acc = 0;
      for (int i = chunk * 1000; i < (chunk + 1) * 1000; ++i) acc += i;
      return acc;
    }));
  }
  long total = 0;
  for (auto& f : futures) total += f.get();
  EXPECT_EQ(total, 16000L * 15999 / 2);
}

TEST(ThreadPoolTest, DoubleShutdownIsSafe) {
  ThreadPool pool(2);
  pool.Shutdown();
  pool.Shutdown();  // must not deadlock or crash
}

}  // namespace
}  // namespace pmkm
