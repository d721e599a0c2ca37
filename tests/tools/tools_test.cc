// Smoke tests for the CLI tools: generate → cluster → inspect, driven as
// real subprocesses (paths injected by CMake via compile definitions).

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "cluster/serialize.h"
#include "data/io.h"
#include "data/manifest.h"
#include "stream/checkpoint.h"

namespace pmkm {
namespace {

namespace fs = std::filesystem;

class ToolsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pmkm_tools_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  int Run(const std::string& command) {
    return std::system((command + " > /dev/null 2>&1").c_str());
  }

  /// The subprocess's actual exit code (Run returns the raw wait status).
  int ExitCode(const std::string& command) {
    const int status = Run(command);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  std::string Dir(const std::string& sub) const {
    return (dir_ / sub).string();
  }

  fs::path dir_;
};

TEST_F(ToolsTest, GenerateCellsMode) {
  ASSERT_EQ(Run(std::string(PMKM_TOOL_GENBUCKETS) + " --out=" +
                Dir("b") + " --mode=cells --cells=3 --n=500"),
            0);
  size_t files = 0;
  for (const auto& e : fs::directory_iterator(Dir("b"))) {
    ++files;
    auto bucket = ReadGridBucket(e.path().string());
    ASSERT_TRUE(bucket.ok()) << bucket.status();
    EXPECT_EQ(bucket->points.size(), 500u);
    EXPECT_EQ(bucket->points.dim(), 6u);
  }
  EXPECT_EQ(files, 3u);
}

TEST_F(ToolsTest, GenerateSwathMode) {
  ASSERT_EQ(Run(std::string(PMKM_TOOL_GENBUCKETS) + " --out=" +
                Dir("s") +
                " --mode=swath --orbits=1 --cell-degrees=30 "
                "--min-cell-points=50"),
            0);
  size_t files = 0;
  for (const auto& e : fs::directory_iterator(Dir("s"))) {
    ++files;
    auto bucket = ReadGridBucket(e.path().string());
    ASSERT_TRUE(bucket.ok());
    EXPECT_GE(bucket->points.size(), 50u);
  }
  EXPECT_GT(files, 0u);
}

TEST_F(ToolsTest, BadModeFails) {
  EXPECT_NE(Run(std::string(PMKM_TOOL_GENBUCKETS) + " --out=" + Dir("x") +
                " --mode=bogus"),
            0);
}

TEST_F(ToolsTest, GenerateRejectsOutOfRangeSizes) {
  // Each used to abort (exit 134) on a CHECK or an uncaught exception;
  // now a usage error, exit 64, before anything is written.
  for (const char* flags :
       {"--mode=cells --n=-1", "--mode=cells --n=0", "--mode=cells --dim=0",
        "--mode=cells --cells=-1", "--mode=swath --orbits=0",
        "--mode=swath --min-cell-points=-1", "--mode=swath --cell-degrees=0",
        "--mode=swath --cell-degrees=-1", "--mode=swath --cell-degrees=inf",
        "--mode=swath --cell-degrees=nan"}) {
    EXPECT_EQ(ExitCode(std::string(PMKM_TOOL_GENBUCKETS) + " --out=" +
                       Dir("b") + " " + flags),
              64)
        << flags;
  }
  EXPECT_FALSE(fs::exists(Dir("b")));
}

TEST_F(ToolsTest, EndToEndClusterAndInspect) {
  ASSERT_EQ(Run(std::string(PMKM_TOOL_GENBUCKETS) + " --out=" + Dir("b") +
                " --mode=cells --cells=2 --n=800"),
            0);
  std::string buckets;
  for (const auto& e : fs::directory_iterator(Dir("b"))) {
    buckets += " " + e.path().string();
  }
  const std::string out = Dir("m");
  ASSERT_EQ(Run(std::string(PMKM_TOOL_CLUSTER) +
                " --k=8 --restarts=2 --out=" + out + buckets),
            0);
  size_t models = 0;
  for (const auto& e : fs::directory_iterator(out)) {
    ++models;
    auto model = LoadModel(e.path().string());
    ASSERT_TRUE(model.ok()) << model.status();
    EXPECT_LE(model->k(), 8u);
    // Inspect must succeed on the model file too.
    EXPECT_EQ(Run(std::string(PMKM_TOOL_INSPECT) + " " + e.path().string()),
              0);
  }
  EXPECT_EQ(models, 2u);
}

TEST_F(ToolsTest, StreamObservabilityOutputsAndInspect) {
  ASSERT_EQ(Run(std::string(PMKM_TOOL_GENBUCKETS) + " --out=" + Dir("b") +
                " --mode=cells --cells=2 --n=600"),
            0);
  std::string buckets;
  for (const auto& e : fs::directory_iterator(Dir("b"))) {
    buckets += " " + e.path().string();
  }
  const std::string metrics = Dir("run.metrics.json");
  const std::string prom = Dir("run.prom");
  const std::string trace = Dir("run.trace.json");
  const std::string stdout_file = Dir("cluster.out");
  // --stats goes to stdout; capture it instead of discarding.
  ASSERT_EQ(std::system((std::string(PMKM_TOOL_CLUSTER) +
                         " --k=6 --restarts=2 --stats" +
                         " --metrics_out=" + metrics +
                         " --prom_out=" + prom + " --trace_out=" + trace +
                         " --out=" + Dir("m") + buckets + " > " +
                         stdout_file + " 2>&1")
                            .c_str()),
            0);

  std::ifstream in(stdout_file);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("EXPLAIN ANALYZE"), std::string::npos) << text;
  EXPECT_NE(text.find("merge-kmeans"), std::string::npos);
  EXPECT_NE(text.find("partial-kmeans"), std::string::npos);
  EXPECT_NE(text.find("exchange \"points\""), std::string::npos);

  ASSERT_TRUE(fs::exists(metrics));
  ASSERT_TRUE(fs::exists(prom));
  ASSERT_TRUE(fs::exists(trace));
  EXPECT_GT(fs::file_size(trace), 0u);

  // Both machine-readable outputs round-trip through pmkm_inspect.
  EXPECT_EQ(Run(std::string(PMKM_TOOL_INSPECT) + " metrics " + metrics),
            0);
  EXPECT_EQ(Run(std::string(PMKM_TOOL_INSPECT) + " trace " + trace), 0);
  // Wrong subcommand/file pairings fail loudly.
  EXPECT_NE(Run(std::string(PMKM_TOOL_INSPECT) + " metrics " + prom), 0);
  EXPECT_NE(Run(std::string(PMKM_TOOL_INSPECT) + " trace " + metrics), 0);
}

TEST_F(ToolsTest, InspectBucket) {
  ASSERT_EQ(Run(std::string(PMKM_TOOL_GENBUCKETS) + " --out=" + Dir("b") +
                " --mode=cells --cells=1 --n=100"),
            0);
  for (const auto& e : fs::directory_iterator(Dir("b"))) {
    const std::string out = Dir("inspect.txt");
    EXPECT_EQ(std::system((std::string(PMKM_TOOL_INSPECT) + " " +
                           e.path().string() + " > " + out)
                              .c_str()),
              0);
    std::ifstream in(out);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("version : 2 (XXH64 trailer)"), std::string::npos)
        << text;
  }
}

TEST_F(ToolsTest, InspectCheckpointNamesUnknownRecordTypes) {
  // Type 3 is retired and 99 comes from some newer build: the dump names
  // both by number and counts them as dropped.
  fs::create_directories(Dir("ckpt"));
  {
    auto journal = JournalWriter::Open(CheckpointJournalPath(Dir("ckpt")));
    ASSERT_TRUE(journal.ok()) << journal.status();
    const std::vector<uint8_t> payload(8, 0);
    ASSERT_TRUE(journal->Append(1, payload).ok());  // kRunBegin
    ASSERT_TRUE(journal->Append(3, payload).ok());
    ASSERT_TRUE(journal->Append(99, payload).ok());
    ASSERT_TRUE(journal->Sync().ok());
  }
  const std::string dump = Dir("dump.json");
  ASSERT_EQ(std::system((std::string(PMKM_TOOL_INSPECT) + " checkpoint " +
                         Dir("ckpt") + " > " + dump)
                            .c_str()),
            0);
  std::ifstream in(dump);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"run_begin\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"unknown(3)\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"unknown(99)\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"records_dropped\": 2"), std::string::npos)
      << text;
}

TEST_F(ToolsTest, InspectRejectsGarbage) {
  const std::string path = Dir("garbage.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a pmkm file";
  }
  EXPECT_NE(Run(std::string(PMKM_TOOL_INSPECT) + " " + path), 0);
}

TEST_F(ToolsTest, InspectExitCodesAreStatusDerived) {
  // The documented sysexits contract: every failure path exits with
  // StatusExitCode(status), never an ad-hoc 1.
  const std::string inspect(PMKM_TOOL_INSPECT);

  // 64 EX_USAGE: bad flags, and no input files.
  EXPECT_EQ(ExitCode(inspect + " --no-such-flag x.pmkb"), 64);
  EXPECT_EQ(ExitCode(inspect), 64);

  // 66 EX_NOINPUT: the file does not exist.
  EXPECT_EQ(ExitCode(inspect + " " + Dir("missing.pmkb")), 66);

  // 65 EX_DATAERR: readable file, but not a pmkm format.
  const std::string garbage = Dir("garbage.bin");
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "not a pmkm file";
  }
  EXPECT_EQ(ExitCode(inspect + " " + garbage), 65);

  // 74 EX_IOERR: right magic, corrupt payload.
  ASSERT_EQ(Run(std::string(PMKM_TOOL_GENBUCKETS) + " --out=" + Dir("b") +
                " --mode=cells --cells=1 --n=100"),
            0);
  std::string bucket;
  for (const auto& e : fs::directory_iterator(Dir("b"))) {
    bucket = e.path().string();
  }
  ASSERT_FALSE(bucket.empty());
  const std::string truncated = Dir("truncated.pmkb");
  {
    std::ifstream in(bucket, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(truncated, std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_EQ(ExitCode(inspect + " " + truncated), 74);

  // Several inputs: every failure renders, the first one's code wins.
  EXPECT_EQ(
      ExitCode(inspect + " " + Dir("missing.pmkb") + " " + garbage), 66);
  EXPECT_EQ(
      ExitCode(inspect + " " + garbage + " " + Dir("missing.pmkb")), 65);

  // A failing input does not mask a later success, nor vice versa: the
  // good file still renders, but the exit code reflects the failure.
  EXPECT_EQ(ExitCode(inspect + " " + bucket + " " + garbage), 65);

  // 0 on full success.
  EXPECT_EQ(ExitCode(inspect + " " + bucket), 0);
}

TEST_F(ToolsTest, ClusterWithoutInputsFails) {
  EXPECT_NE(Run(std::string(PMKM_TOOL_CLUSTER) + " --k=4"), 0);
}

TEST_F(ToolsTest, ClusterRejectsTheRetiredAlgoFlag) {
  // The tool runs only the engine, so --algo is an unknown flag: a usage
  // error, reported before any input is read or any output written.
  const std::string err = Dir("cluster.err");
  const int status =
      std::system((std::string(PMKM_TOOL_CLUSTER) +
                   " --algo=serial --failure_policy=skip --out=" + Dir("m") +
                   " " + Dir("x.pmkb") + " > /dev/null 2> " + err)
                      .c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 64);
  EXPECT_FALSE(fs::exists(Dir("m")));
  std::ifstream in(err);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("unknown flag --algo"), std::string::npos) << text;
}

TEST_F(ToolsTest, ClusterRejectsAnEmptyBucket) {
  // A bucket whose header holds 0 points is bad input, not a cell that
  // clustered to nothing: a usage error under the default failfast.
  fs::create_directories(Dir("b"));
  std::string paths;
  for (int c = 0; c < 2; ++c) {
    GridBucket bucket;
    bucket.cell = GridCellId{c, c};
    bucket.points = Dataset(6);
    const std::string path = Dir("b/" + bucket.cell.ToString() + ".pmkb");
    ASSERT_TRUE(WriteGridBucket(path, bucket).ok());
    paths += " " + path;
  }
  EXPECT_EQ(ExitCode(std::string(PMKM_TOOL_CLUSTER) + " --k=4 --out=" +
                     Dir("m") + paths),
            64);
}

}  // namespace
}  // namespace pmkm
