// RollingHistogram (obs/rolling.h). Everything here
// drives the window with explicit ticks (RecordAt/SnapshotAt), so expiry
// is deterministic and no test sleeps.

#include "obs/rolling.h"

#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace pmkm {
namespace {

TEST(RollingHistogramTest, EmptyWindowIsZero) {
  RollingHistogram h(60);
  const auto s = h.SnapshotAt(100);
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0.0);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 0.0);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.window_seconds, 60u);
}

TEST(RollingHistogramTest, WindowedCountSumMinMax) {
  RollingHistogram h(60);
  h.RecordAt(10.0, 100);
  h.RecordAt(20.0, 101);
  h.RecordAt(30.0, 102);
  const auto s = h.SnapshotAt(102);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.sum, 60.0);
  EXPECT_DOUBLE_EQ(s.min, 10.0);
  EXPECT_DOUBLE_EQ(s.max, 30.0);
}

TEST(RollingHistogramTest, SamplesExpireOutOfTheWindow) {
  RollingHistogram h(10);
  h.RecordAt(100.0, 0);
  // Still visible while the snapshot tick is inside the window...
  EXPECT_EQ(h.SnapshotAt(5).count, 1u);
  // ...and gone once the window has slid past tick 0.
  EXPECT_EQ(h.SnapshotAt(50).count, 0u);
}

TEST(RollingHistogramTest, SlidingWindowKeepsOnlyRecentSamples) {
  RollingHistogram h(10);
  // One sample per second for 30 seconds; values grow with the tick so we
  // can tell which samples survive.
  for (uint64_t t = 0; t < 30; ++t) {
    h.RecordAt(static_cast<double>(t), t);
  }
  const auto s = h.SnapshotAt(29);
  // Window covers ticks (29-10, 29] → values 20..29.
  EXPECT_EQ(s.count, 10u);
  EXPECT_DOUBLE_EQ(s.min, 20.0);
  EXPECT_DOUBLE_EQ(s.max, 29.0);
}

TEST(RollingHistogramTest, SlotReclaimClearsStaleEpoch) {
  RollingHistogram h(4);
  h.RecordAt(1.0, 0);
  // Tick 8 maps to the same ring slot as tick 0 (8 % ring == 0's slot for
  // any ring sized off a 4s window). The old slot's contents must not
  // bleed into the new second.
  h.RecordAt(100.0, 8);
  const auto s = h.SnapshotAt(8);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.min, 100.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
}

TEST(RollingHistogramTest, WindowedPercentilesTrackRecentDistribution) {
  RollingHistogram h(60);
  // 1000 samples of 100us at tick 10, then 1000 of 6000us at tick 40.
  for (int i = 0; i < 1000; ++i) h.RecordAt(100.0, 10);
  for (int i = 0; i < 1000; ++i) h.RecordAt(6000.0, 40);
  // Window at tick 50 (60s wide) still sees both populations: p50 falls
  // between the two modes, p99 in the slow one.
  const auto both = h.SnapshotAt(50);
  EXPECT_EQ(both.count, 2000u);
  EXPECT_GE(both.p99, 4096.0);  // inside the 6000us bucket [4096, 8192)
  // At tick 90 the fast population (tick 10) has aged out: only slow
  // samples remain and even p50 reflects them.
  const auto slow = h.SnapshotAt(90);
  EXPECT_EQ(slow.count, 1000u);
  EXPECT_GE(slow.p50, 4096.0);
  EXPECT_LE(slow.max, 6000.0);
}

TEST(RollingHistogramTest, PercentilesClampedToObservedRange) {
  RollingHistogram h(60);
  for (int i = 0; i < 100; ++i) h.RecordAt(500.0, 10);
  const auto s = h.SnapshotAt(10);
  // Identical samples: every quantile must equal the one observed value
  // (bucket interpolation is clamped to [min, max]).
  EXPECT_DOUBLE_EQ(s.p50, 500.0);
  EXPECT_DOUBLE_EQ(s.p95, 500.0);
  EXPECT_DOUBLE_EQ(s.p99, 500.0);
  EXPECT_DOUBLE_EQ(s.p999, 500.0);
}

TEST(RollingHistogramTest, CumulativeTotalNeverExpires) {
  RollingHistogram h(5);
  h.RecordAt(10.0, 0);
  h.RecordAt(20.0, 100);
  EXPECT_EQ(h.SnapshotAt(100).count, 1u);  // window only sees the second
  EXPECT_EQ(h.total().count(), 2u);        // cumulative keeps both
  EXPECT_DOUBLE_EQ(h.total().sum(), 30.0);
}

TEST(RollingHistogramTest, ConcurrentRecordersLoseNothingInOneTick) {
  RollingHistogram h(60);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.RecordAt(1.0, 42);
    });
  }
  for (auto& t : threads) t.join();
  // Same tick for every record → no slot-boundary smearing is possible,
  // so the count must be exact.
  EXPECT_EQ(h.SnapshotAt(42).count,
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.total().count(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(RollingRegistryTest, RegistryOwnsNamedRollingInstruments) {
  MetricsRegistry registry;
  RollingHistogram& h = registry.rolling_histogram("scan.bucket_us", 30);
  EXPECT_EQ(h.window_seconds(), 30u);
  // Same name → same instrument; window_seconds of later calls ignored.
  EXPECT_EQ(&registry.rolling_histogram("scan.bucket_us", 99), &h);
  h.RecordAt(123.0, 1);
  // Exports include the rolling section.
  const JsonValue doc = registry.ToJson();
  const JsonValue* rolling = doc.Find("rolling");
  ASSERT_NE(rolling, nullptr);
  EXPECT_NE(rolling->Find("scan.bucket_us"), nullptr);
}

}  // namespace
}  // namespace pmkm
