// CpuProfiler (obs/profiler.h): folded-stack aggregation unit tests plus
// a live SIGPROF session that burns CPU in a named function and checks
// the samples attribute to it. The live tests use the process-wide
// profiler serially (ITIMER_PROF is per-process).

#include "obs/profiler.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

namespace pmkm {
namespace obs {
namespace {

TEST(AggregateFoldedTest, SelfAndTotalCounts) {
  const std::string folded =
      "main;Run;Assign 30\n"
      "main;Run;Update 10\n"
      "main;Io 5\n";
  uint64_t total = 0;
  const auto rows = AggregateFolded(folded, &total);
  EXPECT_EQ(total, 45u);
  auto find = [&rows](const std::string& frame) -> ProfileFrameTotals {
    for (const auto& r : rows) {
      if (r.frame == frame) return r;
    }
    return {};
  };
  EXPECT_EQ(find("Assign").self, 30u);
  EXPECT_EQ(find("Assign").total, 30u);
  EXPECT_EQ(find("Run").self, 0u);
  EXPECT_EQ(find("Run").total, 40u);
  EXPECT_EQ(find("main").total, 45u);
  EXPECT_EQ(find("Io").self, 5u);
  // Sorted by self descending: the hottest leaf leads.
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows.front().frame, "Assign");
}

TEST(AggregateFoldedTest, RepeatedFrameInOneStackCountsTotalOnce) {
  // Recursive stack: the frame appears twice but the sample contributes
  // to its total only once (standard flamegraph semantics).
  uint64_t total = 0;
  const auto rows = AggregateFolded("a;b;a 8\n", &total);
  EXPECT_EQ(total, 8u);
  for (const auto& r : rows) {
    if (r.frame == "a") {
      EXPECT_EQ(r.total, 8u);
      EXPECT_EQ(r.self, 8u);  // leaf occurrence
    }
  }
}

TEST(AggregateFoldedTest, MalformedLinesAreIgnored) {
  uint64_t total = 0;
  const auto rows = AggregateFolded(
      "no_count_here\n"
      "\n"
      "good;stack 3\n"
      "bad count notanumber\n",
      &total);
  EXPECT_EQ(total, 3u);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows.front().frame, "stack");
}

TEST(AggregateFoldedTest, EmptyInput) {
  uint64_t total = 123;
  EXPECT_TRUE(AggregateFolded("", &total).empty());
  EXPECT_EQ(total, 0u);
  EXPECT_TRUE(AggregateFolded("", nullptr).empty());  // null total ok
}

}  // namespace

// A CPU burner the optimizer cannot remove or inline away. External
// linkage on purpose: dladdr symbolizes only dynamic-table symbols, and
// an anonymous-namespace function would render as a bare hex address.
// noipa, not just noinline: at -O3 GCC's IPA constant propagation clones
// the burner per call-site constant ("ProfilerTestBurn(...) [clone
// .constprop.0]"), and the clones are local symbols dladdr cannot name.
__attribute__((noipa)) double ProfilerTestBurn(uint64_t iterations) {
  volatile double acc = 0.0;
  for (uint64_t i = 0; i < iterations; ++i) {
    acc = acc + std::sqrt(static_cast<double>(i % 1024) + 1.0);
  }
  return acc;
}

namespace {

TEST(CpuProfilerTest, StartStopLifecycle) {
  CpuProfiler& profiler = CpuProfiler::Global();
  CpuProfiler::Options options;
  options.hz = 500;
  ASSERT_TRUE(profiler.Start(options).ok());
  EXPECT_TRUE(profiler.running());
  EXPECT_FALSE(profiler.Start(options).ok());  // double start
  ASSERT_TRUE(profiler.Stop().ok());
  EXPECT_FALSE(profiler.running());
  EXPECT_FALSE(profiler.Stop().ok());  // double stop
}

TEST(CpuProfilerTest, CollectsAndAttributesSamples) {
  CpuProfiler& profiler = CpuProfiler::Global();
  CpuProfiler::Options options;
  options.hz = 997;  // fast sampling keeps the test short
  ASSERT_TRUE(profiler.Start(options).ok());
  // Burn CPU until samples accumulate (bounded by iteration count so a
  // build without working ITIMER_PROF cannot hang the test).
  double sink = 0.0;
  for (int round = 0; round < 400 && profiler.sample_count() < 50;
       ++round) {
    sink += ProfilerTestBurn(400000);
  }
  ASSERT_TRUE(profiler.Stop().ok());
  EXPECT_NE(sink, -1.0);  // keep the burner's result alive
  if (profiler.sample_count() == 0) {
    GTEST_SKIP() << "no SIGPROF delivery in this environment";
  }
  const std::string folded = profiler.FoldedStacks();
  EXPECT_FALSE(folded.empty());
  uint64_t total = 0;
  const auto rows = AggregateFolded(folded, &total);
  EXPECT_EQ(total, profiler.sample_count());
  // The burner must dominate: it is where essentially all CPU time went.
  // (Acceptance bar from DESIGN.md §14: >=50% attribution to the hot
  // function; we assert a cushioned 40% to keep CI robust.)
  uint64_t burn_total = 0;
  for (const auto& r : rows) {
    if (r.frame.find("ProfilerTestBurn") != std::string::npos) {
      burn_total += r.total;
    }
  }
  EXPECT_GE(burn_total * 100, total * 40)
      << "burner frames got " << burn_total << "/" << total
      << " samples; folded:\n"
      << folded.substr(0, 2000);
}

TEST(CpuProfilerTest, RestartClearsPreviousSamples) {
  CpuProfiler& profiler = CpuProfiler::Global();
  CpuProfiler::Options options;
  options.hz = 997;
  ASSERT_TRUE(profiler.Start(options).ok());
  double sink = 0.0;
  for (int round = 0; round < 200 && profiler.sample_count() == 0;
       ++round) {
    sink += ProfilerTestBurn(200000);
  }
  ASSERT_TRUE(profiler.Stop().ok());
  EXPECT_GE(sink, 0.0);
  if (profiler.sample_count() == 0) {
    GTEST_SKIP() << "no SIGPROF delivery in this environment";
  }
  // A fresh Start must drop the previous session's samples.
  ASSERT_TRUE(profiler.Start(options).ok());
  ASSERT_TRUE(profiler.Stop().ok());
  EXPECT_LT(profiler.sample_count(), 5u);
}

TEST(CpuProfilerTest, WriteFoldedProducesReadableFile) {
  CpuProfiler& profiler = CpuProfiler::Global();
  ASSERT_TRUE(profiler.Start().ok());
  double sink = ProfilerTestBurn(100000);
  ASSERT_TRUE(profiler.Stop().ok());
  EXPECT_GE(sink, 0.0);
  const std::string path =
      ::testing::TempDir() + "pmkm_profiler_test.folded";
  ASSERT_TRUE(profiler.WriteFolded(path).ok());
  // Round-trips through the aggregator (possibly as an empty profile).
  std::string folded = profiler.FoldedStacks();
  uint64_t total = 0;
  AggregateFolded(folded, &total);
  EXPECT_EQ(total, profiler.sample_count());
  ::remove(path.c_str());
}

}  // namespace
}  // namespace obs
}  // namespace pmkm
