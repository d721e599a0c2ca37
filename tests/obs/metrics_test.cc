#include "obs/metrics.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace pmkm {
namespace {

TEST(CounterTest, IncrementsMonotonically) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, TracksValueAndMax) {
  Gauge g;
  g.Set(5);
  g.Set(9);
  g.Set(3);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.max(), 9);
  g.Add(10);
  EXPECT_EQ(g.value(), 13);
  EXPECT_EQ(g.max(), 13);
}

TEST(HistogramTest, CountSumMinMax) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  h.Record(10.0);
  h.Record(100.0);
  h.Record(1.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 111.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
}

TEST(HistogramTest, PercentilesAreOrderedAndClamped) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<double>(i));
  const double p50 = h.Percentile(50);
  const double p95 = h.Percentile(95);
  const double p99 = h.Percentile(99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, h.min());
  EXPECT_LE(p99, h.max());
  // Log-bucketed: p50 of U[1,1000] should land within its covering power
  // of two of the true median.
  EXPECT_GT(p50, 250.0);
  EXPECT_LT(p50, 1024.0);
}

TEST(HistogramTest, SingleValuePercentilesAreExact) {
  Histogram h;
  h.Record(77.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 77.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 77.0);
}

TEST(HistogramTest, MinMaxAreExactNotBucketRounded) {
  // min/max are CAS-tracked exactly; only the quantiles in between are
  // approximated by the log2 buckets.
  Histogram h;
  h.Record(3.7);
  h.Record(1234567.89);
  h.Record(100.0);
  EXPECT_DOUBLE_EQ(h.min(), 3.7);
  EXPECT_DOUBLE_EQ(h.max(), 1234567.89);
  const auto s = h.TakeSnapshot();
  EXPECT_DOUBLE_EQ(s.min, 3.7);
  EXPECT_DOUBLE_EQ(s.max, 1234567.89);
}

TEST(HistogramTest, P999IsolatesTheTail) {
  // 9990 fast samples and 10 slow outliers: p99 sits in the fast
  // population, p99.9 must reach into the outliers.
  Histogram h;
  for (int i = 0; i < 9990; ++i) h.Record(100.0);
  for (int i = 0; i < 10; ++i) h.Record(50000.0);
  const auto s = h.TakeSnapshot();
  EXPECT_LT(s.p99, 1000.0);
  EXPECT_GE(s.p999, 32768.0);  // inside the outliers' bucket [2^15, 2^16)
  EXPECT_LE(s.p999, s.max);
}

TEST(HistogramTest, SnapshotQuantilesAreOrdered) {
  Histogram h;
  for (int i = 1; i <= 10000; ++i) h.Record(static_cast<double>(i));
  const auto s = h.TakeSnapshot();
  EXPECT_LE(s.min, s.p50);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.p999);
  EXPECT_LE(s.p999, s.max);
}

TEST(HistogramTest, QuantileErrorBoundedByBucketGeometry) {
  // Bucket b covers [2^(b-1), 2^b), so any quantile estimate is within a
  // factor of 2 of the true order statistic. Check every exported
  // quantile against its exact value on a uniform distribution.
  Histogram h;
  constexpr int kN = 4096;
  for (int i = 1; i <= kN; ++i) h.Record(static_cast<double>(i));
  const struct {
    double p;
    double exact;
  } cases[] = {{50.0, kN * 0.50}, {95.0, kN * 0.95},
               {99.0, kN * 0.99}, {99.9, kN * 0.999}};
  for (const auto& c : cases) {
    const double estimate = h.Percentile(c.p);
    EXPECT_GE(estimate, c.exact / 2.0) << "p" << c.p;
    EXPECT_LE(estimate, c.exact * 2.0) << "p" << c.p;
  }
}

TEST(HistogramTest, SubUnitValuesLandInTheBottomBucket) {
  // Values below 1 (including 0 and negatives) share bucket 0; min/max
  // still report them exactly.
  Histogram h;
  h.Record(0.0);
  h.Record(0.25);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.25);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_LE(h.Percentile(99), 1.0);
}

TEST(MetricsRegistryTest, InstrumentsAreStableAndNamed) {
  MetricsRegistry registry;
  Counter& a = registry.counter("rows");
  Counter& b = registry.counter("rows");
  EXPECT_EQ(&a, &b);  // get-or-create returns the same instrument
  a.Increment(7);
  EXPECT_EQ(registry.counter("rows").value(), 7u);
  registry.gauge("depth").Set(3);
  registry.histogram("lat_us").Record(12.0);

  const JsonValue json = registry.ToJson();
  ASSERT_TRUE(json.is_object());
  EXPECT_DOUBLE_EQ(json.Find("counters")->Find("rows")->AsDouble(), 7.0);
  EXPECT_DOUBLE_EQ(
      json.Find("gauges")->Find("depth")->Find("value")->AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(
      json.Find("histograms")->Find("lat_us")->Find("count")->AsDouble(),
      1.0);
}

TEST(MetricsRegistryTest, JsonStringRoundTripsThroughParser) {
  MetricsRegistry registry;
  registry.counter("op.scan.rows_in").Increment(123);
  registry.histogram("queue.points.pop_wait_us").Record(5.0);
  auto parsed = JsonValue::Parse(registry.ToJson().Dump(2));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_DOUBLE_EQ(
      parsed->Find("counters")->Find("op.scan.rows_in")->AsDouble(), 123.0);
}

TEST(MetricsRegistryTest, PrometheusTextSanitizesNames) {
  MetricsRegistry registry;
  registry.counter("op.scan#0.rows_in").Increment(5);
  registry.gauge("queue.points.depth").Set(2);
  registry.histogram("lat_us").Record(3.0);
  const std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("pmkm_op_scan_0_rows_in 5"), std::string::npos)
      << text;
  EXPECT_NE(text.find("pmkm_queue_points_depth 2"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.5\""), std::string::npos);
  // No unsanitized characters may survive in metric names ("# TYPE"
  // comment markers are the only legitimate '#').
  EXPECT_EQ(text.find("scan#"), std::string::npos);
}

// Many threads hammering the same instruments: run under
// PMKM_SANITIZE=thread to prove the relaxed-atomics design is race-free.
TEST(MetricsRegistryTest, ConcurrentRecordingIsConsistent) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      Counter& c = registry.counter("hammer.count");
      Gauge& g = registry.gauge("hammer.depth");
      Histogram& h = registry.histogram("hammer.lat_us");
      for (int i = 0; i < kIters; ++i) {
        c.Increment();
        g.Set((t * kIters + i) % 17);
        h.Record(static_cast<double>(1 + (i % 1000)));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(registry.counter("hammer.count").value(),
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(registry.histogram("hammer.lat_us").count(),
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(registry.histogram("hammer.lat_us").min(), 1.0);
  EXPECT_DOUBLE_EQ(registry.histogram("hammer.lat_us").max(), 1000.0);
  EXPECT_LE(registry.gauge("hammer.depth").max(), 16);
}

// Concurrent get-or-create of distinct names must also be safe.
TEST(MetricsRegistryTest, ConcurrentRegistration) {
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < 200; ++i) {
        registry.counter("c" + std::to_string(i)).Increment();
        registry.histogram("h" + std::to_string((t + i) % 50)).Record(1.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(registry.counter("c0").value(), 8u);
}

}  // namespace
}  // namespace pmkm
