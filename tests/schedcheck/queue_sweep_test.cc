// Schedule sweeps over the *real* BoundedBlockingQueue (DESIGN.md §12).
//
// These drive the production queue — not a double — through its
// shutdown, cancel, and instrumented wait paths under thousands of seeded
// schedules. They need the pmkm::Mutex/CondVar hooks, which are compiled
// in only under PMKM_SCHEDCHECK=ON; in other builds they skip.
//
// Seed budgets scale with PMKM_SCHEDCHECK_SEEDS (nightly CI raises it).

#include "stream/queue.h"

#include <optional>

#include <gtest/gtest.h>

#include "common/schedcheck/hooks.h"
#include "common/schedcheck/sweep.h"
#include "common/schedcheck/thread.h"
#include "obs/metrics.h"

namespace pmkm {
namespace {

using schedcheck::SweepOptions;
using schedcheck::SweepResult;
using schedcheck::SweepSchedules;

class QueueSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!schedcheck::HooksEnabledInBuild()) {
      GTEST_SKIP() << "requires a PMKM_SCHEDCHECK=ON build";
    }
  }
};

// Shutdown path: every pushed item must be popped exactly once, and the
// consumer must see end-of-stream after the last producer closes — in
// every explored schedule.
TEST_F(QueueSweepTest, ShutdownDrainsExactlyOnce) {
  SweepOptions options;
  options.name = "queue_shutdown";
  options.num_seeds = schedcheck::SeedsFromEnvOr(1000);
  const SweepResult res = SweepSchedules(options, [] {
    BoundedBlockingQueue<int> q(2);
    q.AddProducer();
    q.AddProducer();
    auto producer = [&q] {
      for (int i = 0; i < 2; ++i) q.Push(i);
      q.CloseProducer();
    };
    int popped = 0;
    bool saw_end = false;
    schedcheck::Thread p1(producer, "producer1");
    schedcheck::Thread p2(producer, "producer2");
    schedcheck::Thread consumer(
        [&] {
          while (q.Pop().has_value()) ++popped;
          saw_end = true;
        },
        "consumer");
    p1.Join();
    p2.Join();
    consumer.Join();
    return popped != 4 || !saw_end;
  });
  EXPECT_FALSE(res.bug_found)
      << "seed " << res.failing_seed << ": " << res.detail;
}

// Cancel path: whatever the interleaving, Cancel must unwedge a producer
// blocked on a full queue and a consumer blocked on an empty one, and the
// queue must end cancelled.
TEST_F(QueueSweepTest, CancelUnblocksEveryParty) {
  SweepOptions options;
  options.name = "queue_cancel";
  options.num_seeds = schedcheck::SeedsFromEnvOr(1000);
  options.strategy = schedcheck::ScheduleOptions::Strategy::kPCT;
  const SweepResult res = SweepSchedules(options, [] {
    BoundedBlockingQueue<int> q(1);
    q.AddProducer();
    bool producer_done = false;
    bool consumer_done = false;
    schedcheck::Thread producer(
        [&] {
          for (int i = 0; i < 3; ++i) {
            if (!q.Push(i)) break;  // cancelled mid-stream
          }
          producer_done = true;
        },
        "producer");
    schedcheck::Thread consumer(
        [&] {
          while (q.Pop().has_value()) {
          }
          consumer_done = true;
        },
        "consumer");
    q.Cancel();
    producer.Join();
    consumer.Join();
    return !producer_done || !consumer_done || !q.cancelled();
  });
  EXPECT_FALSE(res.bug_found)
      << "seed " << res.failing_seed << ": " << res.detail;
}

// Instrumented path: a queue built with its instruments, under a live
// producer and consumer. The instruments are fixed at construction, so
// the pre-fix attach races re-created as seeded-bug doubles in
// seeded_bugs_test.cc cannot arise here; what every schedule must show is
// the instruments recording sane values as the wait paths run.
TEST_F(QueueSweepTest, InstrumentedQueueRecordsPushPop) {
  MetricsRegistry registry;
  Histogram& push_block_us = registry.histogram("push_block_us");
  Histogram& pop_wait_us = registry.histogram("pop_wait_us");
  const QueueMetrics metrics{&registry.gauge("queue_depth"), &push_block_us,
                             &pop_wait_us};
  // Every schedule's waits, summed per side.
  double push_waited = 0.0;
  double pop_waited = 0.0;

  SweepOptions options;
  options.name = "queue_instrumented";
  options.num_seeds = schedcheck::SeedsFromEnvOr(1000);
  const SweepResult res = SweepSchedules(options, [&] {
    BoundedBlockingQueue<int> q(1, metrics);
    q.AddProducer();
    schedcheck::Thread producer(
        [&] {
          for (int i = 0; i < 3; ++i) q.Push(i, &push_waited);
          q.CloseProducer();
        },
        "producer");
    int popped = 0;
    while (q.Pop(&pop_waited).has_value()) ++popped;
    producer.Join();
    return popped != 3;
  });
  EXPECT_FALSE(res.bug_found)
      << "seed " << res.failing_seed << ": " << res.detail;
  // The gauge only saw real depths (capacity 1): high water <= 1.
  EXPECT_LE(registry.gauge("queue_depth").max(), 1);
  // Each wait fed its histogram and its caller's total the same reading.
  EXPECT_GT(push_block_us.count() + pop_wait_us.count(), 0u);
  EXPECT_NEAR(push_block_us.sum(), push_waited * 1e6,
              static_cast<double>(push_block_us.count()));
  EXPECT_NEAR(pop_wait_us.sum(), pop_waited * 1e6,
              static_cast<double>(pop_wait_us.count()));
}

}  // namespace
}  // namespace pmkm
