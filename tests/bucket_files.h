// Test cells as grid-bucket files: every engine test hands
// PipelineBuilder::Run the same kind of files pmkm_cluster reads, so it
// exercises the production scan (stream/ops.h ScanOperator).

#ifndef PMKM_TESTS_BUCKET_FILES_H_
#define PMKM_TESTS_BUCKET_FILES_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <vector>

#include "data/io.h"

namespace pmkm {

/// A fresh temp directory, named after the running test, that holds the
/// buckets Write() stores and is removed on destruction.
class BucketFiles {
 public:
  BucketFiles() {
    static std::atomic<int> instances{0};
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info == nullptr ? "none"
                                       : std::string(info->test_suite_name()) +
                                             "." + info->name();
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = std::filesystem::temp_directory_path() /
           ("pmkm_buckets_" + std::to_string(::getpid()) + "_" +
            std::to_string(instances.fetch_add(1)) + "_" + name);
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~BucketFiles() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  BucketFiles(const BucketFiles&) = delete;
  BucketFiles& operator=(const BucketFiles&) = delete;

  const std::filesystem::path& dir() const { return dir_; }

  /// Writes `bucket` to its own file (numbered, so two buckets of one
  /// cell get two files) and returns the path.
  std::string Write(const GridBucket& bucket) {
    const std::string path =
        (dir_ / (std::to_string(written_++) + "_" + bucket.cell.ToString() +
                 ".pmkb"))
            .string();
    const Status st = WriteGridBucket(path, bucket);
    EXPECT_TRUE(st.ok()) << st;
    return path;
  }

  /// Writes each bucket in order; returns the paths in the same order.
  std::vector<std::string> Write(const std::vector<GridBucket>& buckets) {
    std::vector<std::string> paths;
    for (const GridBucket& bucket : buckets) paths.push_back(Write(bucket));
    return paths;
  }

 private:
  std::filesystem::path dir_;
  size_t written_ = 0;
};

}  // namespace pmkm

#endif  // PMKM_TESTS_BUCKET_FILES_H_
