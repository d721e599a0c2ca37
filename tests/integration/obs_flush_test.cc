// Observability artifacts must survive runs that never finish (the
// end-of-run-only export gap). Two regressions against the real
// pmkm_cluster binary:
//
//   1. SIGKILL mid-run — the periodic SnapshotFlusher has already put a
//      parseable metrics snapshot on disk, so a kill -9 loses at most one
//      flush tick, not the whole run's telemetry.
//   2. A failed run — the failure path exports everything collected up
//      to the error before the process exits non-zero.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.h"

namespace pmkm {
namespace {

namespace fs = std::filesystem;

class ObsFlushTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pmkm_obsflush_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string Dir(const std::string& sub) const {
    return (dir_ / sub).string();
  }

  static std::string ReadAll(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  // Generates a workload big enough that the stream run takes a while.
  std::vector<std::string> MakeBuckets() {
    const std::string cmd = std::string(PMKM_TOOL_GENBUCKETS) +
                            " --out=" + Dir("buckets") +
                            " --mode=cells --cells=6 --n=20000 "
                            "> /dev/null 2>&1";
    EXPECT_EQ(std::system(cmd.c_str()), 0);
    std::vector<std::string> buckets;
    for (const auto& e : fs::directory_iterator(Dir("buckets"))) {
      buckets.push_back(e.path().string());
    }
    EXPECT_FALSE(buckets.empty());
    return buckets;
  }

  // Launches pmkm_cluster via `sh -c "exec ..."` so the returned pid IS
  // the tool (exec replaces the shell), then the test can SIGKILL it.
  static pid_t Spawn(const std::string& command) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      const std::string exec_cmd =
          "exec " + command + " > /dev/null 2>&1";
      ::execl("/bin/sh", "sh", "-c", exec_cmd.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    return pid;
  }

  fs::path dir_;
};

TEST_F(ObsFlushTest, SigkillMidRunLeavesParseableSnapshots) {
  const std::vector<std::string> buckets = MakeBuckets();
  std::string cmd = std::string(PMKM_TOOL_CLUSTER) +
                    " --k=8 --restarts=6 --quiet" +
                    " --out=" + Dir("models") +
                    " --run_id=killtest01" +
                    " --flush_interval_ms=20" +
                    " --metrics_out=" + Dir("run.metrics.json") +
                    " --prom_out=" + Dir("run.prom");
  for (const std::string& b : buckets) cmd += " " + b;

  const pid_t pid = Spawn(cmd);
  ASSERT_GT(pid, 0);
  // Wait for the first flush to land, then kill -9 with no grace.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!fs::exists(Dir("run.metrics.json")) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid, SIGKILL);
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);

  ASSERT_TRUE(fs::exists(Dir("run.metrics.json")))
      << "no snapshot was flushed before the kill";
  const std::string json = ReadAll(Dir("run.metrics.json"));
  auto doc = JsonValue::Parse(json);
  ASSERT_TRUE(doc.ok()) << "torn snapshot: " << json.substr(0, 200);
  EXPECT_NE(doc->Find("counters"), nullptr);
  // The snapshot is tagged with the run id passed on the command line.
  const JsonValue* run_id = doc->Find("run_id");
  ASSERT_NE(run_id, nullptr);
  EXPECT_EQ(run_id->AsString(), "killtest01");
  // The Prometheus artifact flushed too (atomically: never half-written).
  if (fs::exists(Dir("run.prom"))) {
    EXPECT_NE(ReadAll(Dir("run.prom")).find("# TYPE"), std::string::npos);
  }
}

TEST_F(ObsFlushTest, FailedRunStillExportsArtifacts) {
  // Point the tool at a bucket path that does not exist: the stream run
  // fails, the process exits non-zero, and the metrics collected before
  // the failure are still exported.
  const std::string cmd =
      std::string(PMKM_TOOL_CLUSTER) +
      " --k=4 --quiet --out=" + Dir("models") +
      " --flush_interval_ms=0" +  // end-of-run-only: the failure path
      " --metrics_out=" + Dir("fail.metrics.json") + " " +
      Dir("no_such_bucket.pmkb") + " > /dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  EXPECT_NE(rc, 0);
  ASSERT_TRUE(fs::exists(Dir("fail.metrics.json")))
      << "failure path skipped the artifact export";
  auto doc = JsonValue::Parse(ReadAll(Dir("fail.metrics.json")));
  ASSERT_TRUE(doc.ok());
  EXPECT_NE(doc->Find("counters"), nullptr);
}

}  // namespace
}  // namespace pmkm
