#include <gtest/gtest.h>

#include <filesystem>

#include "common/rng.h"
#include "data/generator.h"
#include "data/io.h"
#include "data/slicing.h"
#include "data/synthetic.h"

namespace pmkm {
namespace {

Dataset OnePoint(std::vector<double> point) {
  const size_t dim = point.size();
  return Dataset::FromFlat(dim, std::move(point)).value();
}

class BucketWriterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pmkm_bw_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

TEST_F(BucketWriterTest, StreamedWriteMatchesBulkWrite) {
  Rng rng(1);
  GridBucket bucket;
  bucket.cell = GridCellId{7, -8};
  bucket.points = GenerateUniform(333, 5, -100, 100, &rng);

  const std::string bulk = Path("bulk.pmkb");
  ASSERT_TRUE(WriteGridBucket(bulk, bucket).ok());

  const std::string streamed = Path("streamed.pmkb");
  auto writer = GridBucketWriter::Open(streamed, bucket.cell, 5);
  ASSERT_TRUE(writer.ok());
  // Append in two unequal batches plus single points.
  ASSERT_TRUE(writer->AppendAll(SlicePoints(bucket.points, 0, 100)).ok());
  for (size_t i = 100; i < 150; ++i) {
    ASSERT_TRUE(writer->AppendAll(SlicePoints(bucket.points, i, i + 1)).ok());
  }
  ASSERT_TRUE(writer->AppendAll(SlicePoints(bucket.points, 150, 333)).ok());
  EXPECT_EQ(writer->points_written(), 333u);
  ASSERT_TRUE(writer->Close().ok());

  // Byte-identical files.
  std::ifstream a(bulk, std::ios::binary), b(streamed, std::ios::binary);
  const std::string ca((std::istreambuf_iterator<char>(a)),
                       std::istreambuf_iterator<char>());
  const std::string cb((std::istreambuf_iterator<char>(b)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(ca, cb);

  auto read = ReadGridBucket(streamed);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->points, bucket.points);
  EXPECT_EQ(read->cell, bucket.cell);
}

TEST_F(BucketWriterTest, ZeroDimRejected) {
  EXPECT_TRUE(GridBucketWriter::Open(Path("z.pmkb"), {0, 0}, 0)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(BucketWriterTest, WrongDimensionRejected) {
  auto writer = GridBucketWriter::Open(Path("d.pmkb"), {0, 0}, 3);
  ASSERT_TRUE(writer.ok());
  EXPECT_TRUE(writer->AppendAll(OnePoint({1.0, 2.0}))
                  .IsInvalidArgument());
}

TEST_F(BucketWriterTest, UseAfterCloseFails) {
  auto writer = GridBucketWriter::Open(Path("c.pmkb"), {0, 0}, 2);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->AppendAll(OnePoint({1.0, 2.0})).ok());
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_TRUE(writer->AppendAll(OnePoint({3.0, 4.0}))
                  .IsFailedPrecondition());
  EXPECT_TRUE(writer->Close().IsFailedPrecondition());
}

TEST_F(BucketWriterTest, UnclosedFileFailsValidationOnRead) {
  const std::string path = Path("unclosed.pmkb");
  {
    auto writer = GridBucketWriter::Open(path, {1, 2}, 2);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->AppendAll(OnePoint({1.0, 2.0})).ok());
    // Deliberately no Close(): header count stays 0, checksum missing.
    // Destroying the stream flushes what was written.
  }
  auto read = ReadGridBucket(path);
  // Either the count is 0 with a garbage "checksum" region (payload bytes
  // interpreted as checksum fail the hash of an empty payload), or the
  // read errors out — both reject the half-written file.
  if (read.ok()) {
    // count==0 + first 16 payload bytes misread as checksum: the empty
    // payload hashes to the FNV offset, which cannot equal point data for
    // this input.
    FAIL() << "unclosed bucket file was accepted";
  }
  EXPECT_TRUE(read.status().IsIOError());
}

TEST_F(BucketWriterTest, EmptyBucketViaWriter) {
  const std::string path = Path("empty.pmkb");
  auto writer = GridBucketWriter::Open(path, {3, 4}, 6);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Close().ok());
  auto read = ReadGridBucket(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->points.size(), 0u);
  EXPECT_EQ(read->cell, (GridCellId{3, 4}));
}

TEST_F(BucketWriterTest, LargeStreamedBucketChunkReads) {
  Rng rng(2);
  const std::string path = Path("large.pmkb");
  auto writer = GridBucketWriter::Open(path, {0, 0}, 6);
  ASSERT_TRUE(writer.ok());
  size_t total = 0;
  for (int batch = 0; batch < 20; ++batch) {
    const Dataset points = GenerateMisrLikeCell(997, &rng);
    ASSERT_TRUE(writer->AppendAll(points).ok());
    total += points.size();
  }
  ASSERT_TRUE(writer->Close().ok());

  auto reader = GridBucketReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->total_points(), total);
  Dataset chunk(6);
  size_t seen = 0;
  for (;;) {
    auto more = reader->Next(4096, &chunk);
    ASSERT_TRUE(more.ok()) << more.status();
    if (!*more) break;
    seen += chunk.size();
  }
  EXPECT_EQ(seen, total);
}

}  // namespace
}  // namespace pmkm
