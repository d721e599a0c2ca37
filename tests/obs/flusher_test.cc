// SnapshotFlusher (obs/flusher.h): periodic artifact writes, the final
// flush on Stop, and the explicit FlushNow used by failure paths.

#include "obs/flusher.h"

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pmkm {
namespace obs {
namespace {

namespace fs = std::filesystem;

class SnapshotFlusherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pmkm_flusher_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static std::string ReadAll(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  fs::path dir_;
};

TEST_F(SnapshotFlusherTest, FlushNowWritesAllDestinations) {
  MetricsRegistry registry;
  registry.counter("rows").Increment(9);
  TraceRecorder tracer;
  SnapshotFlusher::Options options;
  options.metrics_json_path = Path("m.json");
  options.metrics_prom_path = Path("m.prom");
  options.trace_json_path = Path("t.json");
  SnapshotFlusher flusher(&registry, &tracer, options);
  ASSERT_TRUE(flusher.Start().ok());
  ASSERT_TRUE(flusher.FlushNow().ok());
  EXPECT_TRUE(flusher.Stop().ok());
  auto doc = JsonValue::Parse(ReadAll(Path("m.json")));
  ASSERT_TRUE(doc.ok());
  EXPECT_NE(doc->Find("counters"), nullptr);
  EXPECT_NE(ReadAll(Path("m.prom")).find("pmkm_rows 9"),
            std::string::npos);
  EXPECT_TRUE(JsonValue::Parse(ReadAll(Path("t.json"))).ok());
}

TEST_F(SnapshotFlusherTest, PeriodicFlushesHappenWithoutStop) {
  MetricsRegistry registry;
  SnapshotFlusher::Options options;
  options.interval_ms = 5;
  options.metrics_json_path = Path("m.json");
  SnapshotFlusher flusher(&registry, nullptr, options);
  ASSERT_TRUE(flusher.Start().ok());
  // The crash-safety property under test: snapshots land on disk while
  // the process is still running, so a SIGKILL loses at most one tick.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (flusher.flush_count() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(flusher.flush_count(), 3u);
  EXPECT_TRUE(JsonValue::Parse(ReadAll(Path("m.json"))).ok());
  EXPECT_TRUE(flusher.Stop().ok());
}

TEST_F(SnapshotFlusherTest, StopPerformsFinalFlush) {
  MetricsRegistry registry;
  SnapshotFlusher::Options options;
  options.interval_ms = 60'000;  // no periodic tick will fire in time
  options.metrics_json_path = Path("m.json");
  SnapshotFlusher flusher(&registry, nullptr, options);
  ASSERT_TRUE(flusher.Start().ok());
  registry.counter("rows").Increment(4);
  EXPECT_TRUE(flusher.Stop().ok());
  const std::string json = ReadAll(Path("m.json"));
  EXPECT_NE(json.find("rows"), std::string::npos) << json;
  EXPECT_TRUE(flusher.Stop().ok());  // idempotent
}

TEST_F(SnapshotFlusherTest, StartValidatesOptions) {
  MetricsRegistry registry;
  EXPECT_FALSE(SnapshotFlusher(&registry, nullptr, {}).Start().ok());
  SnapshotFlusher::Options bad_interval;
  bad_interval.interval_ms = 0;
  bad_interval.metrics_json_path = Path("m.json");
  EXPECT_FALSE(SnapshotFlusher(&registry, nullptr, bad_interval).Start().ok());
  SnapshotFlusher::Options good;
  good.metrics_json_path = Path("m.json");
  SnapshotFlusher flusher(&registry, nullptr, good);
  ASSERT_TRUE(flusher.Start().ok());
  EXPECT_FALSE(flusher.Start().ok());  // already running
  EXPECT_TRUE(flusher.Stop().ok());
}

TEST_F(SnapshotFlusherTest, FlushNowWorksWithoutStart) {
  MetricsRegistry registry;
  registry.counter("rows").Increment(1);
  // A run without periodic flushing calls FlushNow with no thread
  // running.
  SnapshotFlusher::Options options;
  options.metrics_json_path = Path("m.json");
  SnapshotFlusher flusher(&registry, nullptr, options);
  ASSERT_TRUE(flusher.FlushNow().ok());
  EXPECT_TRUE(fs::exists(Path("m.json")));
  EXPECT_FALSE(flusher.running());
}

TEST_F(SnapshotFlusherTest, FlushReportsUnwritableDestination) {
  MetricsRegistry registry;
  SnapshotFlusher::Options options;
  options.metrics_json_path = (dir_ / "missing_dir" / "m.json").string();
  SnapshotFlusher flusher(&registry, nullptr, options);
  ASSERT_TRUE(flusher.Start().ok());
  EXPECT_FALSE(flusher.FlushNow().ok());
  EXPECT_FALSE(flusher.Stop().ok());  // the final flush fails the same way
}

TEST_F(SnapshotFlusherTest, FailedFlushKeepsThePreviousSnapshot) {
  MetricsRegistry registry;
  registry.counter("rows").Increment(1);
  TraceRecorder tracer;
  SnapshotFlusher::Options options;
  options.metrics_json_path = Path("m.json");
  SnapshotFlusher flusher(&registry, &tracer, options);
  ASSERT_TRUE(flusher.FlushNow().ok());
  const std::string before = ReadAll(Path("m.json"));

  registry.counter("rows").Increment(41);
  FaultRegistry::Global().Arm("io.rename", FaultSpec{.nth = 1, .message = ""});
  const Status st = flusher.FlushNow();
  FaultRegistry::Global().Reset();
  EXPECT_TRUE(st.IsIOError()) << st;
  EXPECT_EQ(ReadAll(Path("m.json")), before);
}

}  // namespace
}  // namespace obs
}  // namespace pmkm
