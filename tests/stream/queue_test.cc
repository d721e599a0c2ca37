#include "stream/queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

namespace pmkm {
namespace {

TEST(QueueTest, FifoSingleThread) {
  BoundedBlockingQueue<int> q(10);
  q.AddProducer();
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_TRUE(q.Push(3));
  q.CloseProducer();
  EXPECT_EQ(q.Pop(), 1);
  EXPECT_EQ(q.Pop(), 2);
  EXPECT_EQ(q.Pop(), 3);
  EXPECT_EQ(q.Pop(), std::nullopt);  // closed and drained
}

TEST(QueueTest, PopAfterCloseDrainsRemainder) {
  BoundedBlockingQueue<int> q(4);
  q.AddProducer();
  q.Push(7);
  q.CloseProducer();
  EXPECT_EQ(q.Pop(), 7);
  EXPECT_EQ(q.Pop(), std::nullopt);
}

TEST(QueueTest, BlockingPopWakesOnPush) {
  BoundedBlockingQueue<int> q(2);
  q.AddProducer();
  std::optional<int> got;
  std::thread consumer([&] { got = q.Pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Push(42);
  consumer.join();
  EXPECT_EQ(got, 42);
  q.CloseProducer();
}

TEST(QueueTest, BlockingPushWakesOnPop) {
  BoundedBlockingQueue<int> q(1);
  q.AddProducer();
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    q.Push(2);  // blocks: queue full
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.Pop(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  q.CloseProducer();
}

TEST(QueueTest, MultiProducerCloseSemantics) {
  BoundedBlockingQueue<int> q(100);
  q.AddProducer();
  q.AddProducer();
  q.Push(1);
  q.CloseProducer();
  // One producer still open: queue not ended.
  q.Push(2);
  q.CloseProducer();
  EXPECT_EQ(q.Pop(), 1);
  EXPECT_EQ(q.Pop(), 2);
  EXPECT_EQ(q.Pop(), std::nullopt);
}

TEST(QueueTest, CancelUnblocksEveryone) {
  BoundedBlockingQueue<int> q(1);
  q.AddProducer();
  ASSERT_TRUE(q.Push(1));
  std::atomic<int> results{0};
  std::thread blocked_producer([&] {
    if (!q.Push(2)) results.fetch_add(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Cancel();
  blocked_producer.join();
  EXPECT_EQ(results.load(), 1);
  EXPECT_EQ(q.Pop(), std::nullopt);
  EXPECT_FALSE(q.Push(3));
  EXPECT_TRUE(q.cancelled());
}

TEST(QueueTest, MpmcStressAllItemsDeliveredExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 2500;
  BoundedBlockingQueue<int> q(8);
  for (int p = 0; p < kProducers; ++p) q.AddProducer();

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
      q.CloseProducer();
    });
  }
  std::mutex mu;
  std::vector<int> consumed;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      std::vector<int> local;
      while (auto item = q.Pop()) local.push_back(*item);
      std::lock_guard<std::mutex> lock(mu);
      consumed.insert(consumed.end(), local.begin(), local.end());
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(consumed.size(),
            static_cast<size_t>(kProducers * kPerProducer));
  std::sort(consumed.begin(), consumed.end());
  for (size_t i = 0; i < consumed.size(); ++i) {
    EXPECT_EQ(consumed[i], static_cast<int>(i));
  }
}

TEST(QueueTest, MoveOnlyItems) {
  BoundedBlockingQueue<std::unique_ptr<int>> q(2);
  q.AddProducer();
  q.Push(std::make_unique<int>(5));
  q.CloseProducer();
  auto item = q.Pop();
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(**item, 5);
}

TEST(QueueTest, SizeAndCapacity) {
  BoundedBlockingQueue<int> q(3);
  EXPECT_EQ(q.capacity(), 3u);
  EXPECT_EQ(q.size(), 0u);
  q.AddProducer();
  q.Push(1);
  q.Push(2);
  EXPECT_EQ(q.size(), 2u);
  q.CloseProducer();
}

TEST(QueueTest, DepthAndHighWaterMarkSingleThread) {
  BoundedBlockingQueue<int> q(4);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.HighWaterMark(), 0u);
  q.AddProducer();
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.HighWaterMark(), 3u);
  q.Pop();
  q.Pop();
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.HighWaterMark(), 3u);  // sticky after draining
  q.Push(4);
  EXPECT_EQ(q.HighWaterMark(), 3u);  // depth 2 < previous peak
  q.CloseProducer();
  EXPECT_EQ(q.total_pushed(), 4u);
}

TEST(QueueTest, HighWaterMarkUnderConcurrentPushPop) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  constexpr size_t kCapacity = 6;
  BoundedBlockingQueue<int> q(kCapacity);
  for (int p = 0; p < kProducers; ++p) q.AddProducer();
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) ASSERT_TRUE(q.Push(i));
      q.CloseProducer();
    });
  }
  std::atomic<size_t> consumed{0};
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&] {
      while (q.Pop()) consumed.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(consumed.load(),
            static_cast<size_t>(kProducers) * kPerProducer);
  EXPECT_EQ(q.total_pushed(),
            static_cast<uint64_t>(kProducers) * kPerProducer);
  // Fast producers vs. slow consumers must have filled the queue at least
  // once, and the mark can never exceed the capacity bound.
  EXPECT_GE(q.HighWaterMark(), 1u);
  EXPECT_LE(q.HighWaterMark(), kCapacity);
}

TEST(QueueTest, ConstructedWithMetricsRecordsDepthAndBlockTimes) {
  MetricsRegistry registry;
  Histogram& push_block_us = registry.histogram("q.push_block_us");
  Histogram& pop_wait_us = registry.histogram("q.pop_wait_us");
  BoundedBlockingQueue<int> q(
      1, QueueMetrics{&registry.gauge("q.depth"), &push_block_us,
                      &pop_wait_us});
  q.AddProducer();
  constexpr std::chrono::milliseconds kSleep{15};
  const double sleep_seconds = std::chrono::duration<double>(kSleep).count();
  double push_waited = 0.0;
  double pop_waited = 0.0;

  // A call that finds room or an item adds exactly nothing.
  ASSERT_TRUE(q.Push(1, &push_waited));
  EXPECT_EQ(registry.gauge("q.depth").value(), 1);
  EXPECT_EQ(q.Pop(&pop_waited), 1);
  EXPECT_EQ(push_waited, 0.0);
  EXPECT_EQ(pop_waited, 0.0);
  EXPECT_EQ(push_block_us.count(), 0u);
  EXPECT_EQ(pop_wait_us.count(), 0u);

  // Full queue: this thread blocks until the other, which starts its
  // sleep once the push is under way, pops.
  ASSERT_TRUE(q.Push(2));
  std::atomic<bool> pushing{false};
  std::thread consumer([&] {
    while (!pushing.load()) std::this_thread::yield();
    std::this_thread::sleep_for(kSleep);
    EXPECT_EQ(q.Pop(), 2);
  });
  pushing.store(true);
  ASSERT_TRUE(q.Push(3, &push_waited));
  consumer.join();
  EXPECT_GE(push_waited, sleep_seconds);

  // Empty queue with a live producer: the same, popping.
  EXPECT_EQ(q.Pop(), 3);
  std::atomic<bool> popping{false};
  std::thread producer([&] {
    while (!popping.load()) std::this_thread::yield();
    std::this_thread::sleep_for(kSleep);
    EXPECT_TRUE(q.Push(4));
  });
  popping.store(true);
  EXPECT_EQ(q.Pop(&pop_waited), 4);
  producer.join();
  EXPECT_GE(pop_waited, sleep_seconds);

  q.CloseProducer();
  EXPECT_EQ(q.Pop(&pop_waited), std::nullopt);  // end of stream: no wait
  EXPECT_EQ(registry.gauge("q.depth").max(), 1);
  // One reading per wait feeds both sinks: each histogram's sum (µs) is
  // its caller's total, within 1 µs per record.
  ASSERT_EQ(push_block_us.count(), 1u);
  ASSERT_EQ(pop_wait_us.count(), 1u);
  EXPECT_NEAR(push_block_us.sum(), push_waited * 1e6, 1.0);
  EXPECT_NEAR(pop_wait_us.sum(), pop_waited * 1e6, 1.0);
}

}  // namespace
}  // namespace pmkm
