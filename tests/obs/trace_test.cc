#include "obs/trace.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "common/fault.h"

namespace pmkm {
namespace {

TEST(ScopedSpanTest, NullRecorderIsFullyDisabled) {
  ScopedSpan span(nullptr, "noop");
  EXPECT_FALSE(span.enabled());
  span.AddArg("ignored", 1);  // must be a safe no-op
}

TEST(ScopedSpanTest, RecordsOneCompleteEventWithArgs) {
  TraceRecorder recorder;
  {
    ScopedSpan span(&recorder, "partial.chunk", "compute");
    EXPECT_TRUE(span.enabled());
    span.AddArg("cell", "cell_1_2");
    span.AddArg("points", 512);
  }
  ASSERT_EQ(recorder.size(), 1u);
  const TraceEvent e = recorder.Events()[0];
  EXPECT_EQ(e.name, "partial.chunk");
  EXPECT_EQ(e.category, "compute");
  ASSERT_EQ(e.args.size(), 2u);
  EXPECT_EQ(e.args[0].first, "cell");
  EXPECT_EQ(e.args[0].second.AsString(), "cell_1_2");
}

TEST(ScopedSpanTest, DurationCoversTheScope) {
  TraceRecorder recorder;
  {
    ScopedSpan span(&recorder, "sleepy");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(recorder.size(), 1u);
  EXPECT_GE(recorder.Events()[0].dur_us, 4000u);
}

// Golden shape test: the export must be exactly what Chrome/Perfetto
// expects — {"traceEvents": [{name, cat, ph:"X", ts, dur, pid, tid}],
// "displayTimeUnit": "ms"} — verified by parsing the JSON back.
TEST(TraceRecorderTest, JsonMatchesChromeTraceShape) {
  TraceRecorder recorder;
  { ScopedSpan a(&recorder, "scan.bucket", "io"); }
  {
    ScopedSpan b(&recorder, "merge.cell", "compute");
    b.AddArg("cell", "cell_0_0");
  }

  auto parsed = JsonValue::Parse(recorder.ToJson().Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Find("displayTimeUnit")->AsString(), "ms");
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->size(), 2u);
  for (const JsonValue& e : events->items()) {
    EXPECT_EQ(e.Find("ph")->AsString(), "X");
    EXPECT_TRUE(e.Find("name")->is_string());
    EXPECT_TRUE(e.Find("cat")->is_string());
    EXPECT_TRUE(e.Find("ts")->is_number());
    EXPECT_TRUE(e.Find("dur")->is_number());
    EXPECT_EQ(e.Find("pid")->AsInt(), 1);
    EXPECT_TRUE(e.Find("tid")->is_number());
  }
  const JsonValue& merge = events->at(1);
  EXPECT_EQ(merge.Find("name")->AsString(), "merge.cell");
  EXPECT_EQ(merge.Find("args")->Find("cell")->AsString(), "cell_0_0");
}

TEST(TraceRecorderTest, ThreadsGetDenseDistinctTids) {
  TraceRecorder recorder;
  // Both threads must be alive at once: after a join the OS may recycle
  // the native thread id, which correctly maps to the same trace lane.
  std::atomic<int> arrived{0};
  auto worker = [&](const char* name) {
    { ScopedSpan s(&recorder, name); }
    arrived.fetch_add(1);
    while (arrived.load() < 2) std::this_thread::yield();
  };
  std::thread t1(worker, "a");
  std::thread t2(worker, "b");
  t1.join();
  t2.join();
  const auto events = recorder.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
  // Dense ids: the first two threads seen get 1 and 2.
  EXPECT_GE(events[0].tid, 1u);
  EXPECT_LE(events[0].tid, 2u);
  EXPECT_GE(events[1].tid, 1u);
  EXPECT_LE(events[1].tid, 2u);
}

TEST(TraceRecorderTest, WriteJsonProducesALoadableFile) {
  TraceRecorder recorder;
  { ScopedSpan s(&recorder, "op"); }
  const std::string path =
      testing::TempDir() + "/pmkm_trace_test.trace.json";
  ASSERT_TRUE(recorder.WriteJson(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = JsonValue::Parse(buf.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Find("traceEvents")->size(), 1u);
  std::remove(path.c_str());
}

TEST(TraceRecorderTest, FailedWriteKeepsThePreviousFile) {
  TraceRecorder recorder;
  { ScopedSpan s(&recorder, "first"); }
  const std::string path =
      testing::TempDir() + "/pmkm_trace_keep_test.trace.json";
  ASSERT_TRUE(recorder.WriteJson(path).ok());
  const auto read_all = [&path] {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  const std::string before = read_all();

  { ScopedSpan s(&recorder, "second"); }
  FaultRegistry::Global().Arm("io.rename", FaultSpec{.nth = 1, .message = ""});
  const Status st = recorder.WriteJson(path);
  FaultRegistry::Global().Reset();
  EXPECT_TRUE(st.IsIOError()) << st;
  EXPECT_EQ(read_all(), before);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(TraceRecorderTest, ConcurrentSpansAllArrive) {
  TraceRecorder recorder;
  constexpr int kThreads = 4;
  constexpr int kSpans = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder] {
      for (int i = 0; i < kSpans; ++i) {
        ScopedSpan s(&recorder, "burst");
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(recorder.size(),
            static_cast<size_t>(kThreads) * kSpans);
}

}  // namespace
}  // namespace pmkm
