// TSan regression tests for BoundedBlockingQueue shutdown paths: queue
// teardown via Cancel / CloseProducer while producers and consumers are
// blocked, a depth gauge records and snapshots are read. They exist to
// keep the ThreadSanitizer suite (scripts/run_sanitizers.sh tsan) red if
// a race on those paths ever appears.

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "stream/queue.h"

namespace pmkm {
namespace {

TEST(QueueShutdownTest, CancelRacesAttachAndBlockedThreads) {
  for (int round = 0; round < 16; ++round) {
    MetricsRegistry registry;
    BoundedBlockingQueue<int> queue(
        2, QueueMetrics{&registry.gauge("depth"), nullptr, nullptr});
    queue.AddProducer();

    std::vector<std::thread> threads;

    // Producers block on the tiny capacity until Cancel releases them.
    for (int p = 0; p < 2; ++p) {
      threads.emplace_back([&queue] {
        for (int i = 0; i < 1000; ++i) {
          if (!queue.Push(i)) return;  // cancelled
        }
      });
    }
    // One consumer drains slowly so producers really do block.
    threads.emplace_back([&queue] {
      for (int i = 0; i < 10; ++i) {
        if (!queue.Pop().has_value()) return;
      }
      while (queue.Pop().has_value()) {
      }
    });
    // Snapshot readers race the teardown too.
    threads.emplace_back([&queue] {
      for (int i = 0; i < 100; ++i) {
        (void)queue.size();
        (void)queue.HighWaterMark();
        (void)queue.total_pushed();
        (void)queue.cancelled();
      }
    });

    queue.Cancel();
    for (auto& t : threads) t.join();
    EXPECT_TRUE(queue.cancelled());
    // Cancelled queue rejects further traffic.
    EXPECT_FALSE(queue.Push(1));
    EXPECT_FALSE(queue.Pop().has_value());
    queue.CloseProducer();
  }
}

TEST(QueueShutdownTest, CloseProducerWakesAllBlockedConsumers) {
  BoundedBlockingQueue<int> queue(4);
  queue.AddProducer();

  std::atomic<int> finished{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 4; ++c) {
    consumers.emplace_back([&queue, &finished] {
      while (queue.Pop().has_value()) {
      }
      finished.fetch_add(1, std::memory_order_relaxed);
    });
  }

  ASSERT_TRUE(queue.Push(1));
  queue.CloseProducer();  // end of stream: every consumer must wake
  for (auto& t : consumers) t.join();
  EXPECT_EQ(finished.load(), 4);
}

}  // namespace
}  // namespace pmkm
