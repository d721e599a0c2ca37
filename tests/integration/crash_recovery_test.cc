// Crash-recovery integration: kills the real pmkm_cluster binary at
// deterministic fault points (SIGKILL via crash faults, torn journal
// writes), resumes from the checkpoint, and asserts the final model files
// are bytewise identical to an uninterrupted reference run. The
// randomized kill-sweep over many seeds lives in
// scripts/run_crash_sweep.sh; this test pins one reproducible scenario
// per crash site so a regression fails fast in CI.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace pmkm {
namespace {

namespace fs = std::filesystem;

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pmkm_crash_" + std::to_string(::getpid()) + "_" +
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

  // Runs `command` with PMKM_FAULTS set to `faults` (empty = no faults).
  int Run(const std::string& command, const std::string& faults = "") {
    std::string full = "env ";
    full += faults.empty() ? "-u PMKM_FAULTS"
                           : "PMKM_FAULTS='" + faults + "'";
    full += " " + command + " > /dev/null 2>&1";
    return std::system(full.c_str());
  }

  // Generates the shared input buckets and the uninterrupted reference
  // models; returns the space-joined bucket path list.
  std::string PrepareReference() {
    EXPECT_EQ(Run(std::string(PMKM_TOOL_GENBUCKETS) + " --out=" +
                  Dir("buckets") + " --mode=cells --cells=3 --n=500"),
              0);
    std::string buckets;
    for (const auto& e : fs::directory_iterator(Dir("buckets"))) {
      buckets += " " + e.path().string();
    }
    EXPECT_EQ(Run(ClusterCommand(Dir("ref"), /*checkpoint=*/false) +
                  buckets),
              0);
    return buckets;
  }

  std::string ClusterCommand(const std::string& out,
                             bool checkpoint = true) const {
    std::string cmd = std::string(PMKM_TOOL_CLUSTER) +
                      " --k=5 --restarts=2 --quiet --out=" +
                      out;
    if (checkpoint) cmd += " --checkpoint_dir=" + Dir("ckpt");
    return cmd;
  }

  static std::vector<char> ReadAll(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  }

  // Every reference model must exist in `out` with identical bytes.
  void ExpectModelsMatchReference(const std::string& out) {
    size_t models = 0;
    for (const auto& e : fs::directory_iterator(Dir("ref"))) {
      ++models;
      const std::string other =
          (fs::path(out) / e.path().filename()).string();
      ASSERT_TRUE(fs::exists(other)) << other;
      EXPECT_EQ(ReadAll(e.path().string()), ReadAll(other))
          << e.path().filename() << " differs from the reference";
    }
    EXPECT_EQ(models, 3u);
  }

  // Crashes the first run with `faults`, then resumes (faultless) until
  // it exits cleanly, and checks bitwise identity with the reference.
  void CrashThenResume(const std::string& faults, const std::string& out,
                       const std::string& buckets) {
    EXPECT_NE(Run(ClusterCommand(out) + buckets, faults), 0)
        << "the crash fault " << faults << " did not kill the run";
    // The journal left behind must always be inspectable, however torn.
    EXPECT_EQ(Run(std::string(PMKM_TOOL_INSPECT) + " checkpoint " +
                  Dir("ckpt")),
              0);
    int rc = -1;
    for (int attempt = 0; attempt < 5 && rc != 0; ++attempt) {
      rc = Run(ClusterCommand(out) + buckets);
    }
    ASSERT_EQ(rc, 0) << "run did not recover after 5 resumes";
    ExpectModelsMatchReference(out);
  }

  fs::path dir_;
};

TEST_F(CrashRecoveryTest, KilledAtCheckpointAppend) {
  const std::string buckets = PrepareReference();
  // Hit 1 is the kRunBegin record; hit 3 dies while journaling the second
  // completed cell, after cell one is already durable.
  CrashThenResume("checkpoint.append:n=3,crash=1", Dir("m1"), buckets);
}

TEST_F(CrashRecoveryTest, KilledAtJournalFsync) {
  const std::string buckets = PrepareReference();
  CrashThenResume("io.fsync:n=2,crash=1", Dir("m2"), buckets);
}

TEST_F(CrashRecoveryTest, KilledAtModelRename) {
  const std::string buckets = PrepareReference();
  // The run itself completes (journal sealed); the crash lands in the
  // atomic model publish, so recovery recomputes from a complete journal
  // rotation rather than a partial one.
  CrashThenResume("io.rename:n=1,crash=1", Dir("m3"), buckets);
}

TEST_F(CrashRecoveryTest, TornJournalWriteThenResume) {
  const std::string buckets = PrepareReference();
  // Not a process kill: the append tears half a frame onto disk and
  // errors out. The failed run exits nonzero under the default failfast
  // policy; the resume must truncate the torn tail and finish.
  EXPECT_NE(Run(ClusterCommand(Dir("m4")) + buckets,
                "journal.torn:n=2"),
            0);
  EXPECT_EQ(Run(std::string(PMKM_TOOL_INSPECT) + " checkpoint " +
                Dir("ckpt")),
            0);
  ASSERT_EQ(Run(ClusterCommand(Dir("m4")) + buckets), 0);
  ExpectModelsMatchReference(Dir("m4"));
}

TEST_F(CrashRecoveryTest, RepeatedKillsEventuallyFinish) {
  const std::string buckets = PrepareReference();
  // Die during a cell append on every attempt: each run advances the
  // journal by at most one cell before being killed, and the final clean
  // run finishes from wherever the crash loop got to. This pins the
  // invariant that repeated kills never corrupt the checkpoint into an
  // unrecoverable state.
  for (int i = 0; i < 3; ++i) {
    EXPECT_NE(Run(ClusterCommand(Dir("m5")) + buckets,
                  "checkpoint.append:n=2,crash=1"),
              0);
  }
  ASSERT_EQ(Run(ClusterCommand(Dir("m5")) + buckets), 0);
  ExpectModelsMatchReference(Dir("m5"));
}

}  // namespace
}  // namespace pmkm
