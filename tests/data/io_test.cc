#include "data/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/rng.h"
#include "data/generator.h"

namespace pmkm {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pmkm_io_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

GridBucket MakeBucket(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  GridBucket b;
  b.cell = GridCellId{12, -34};
  b.points = GenerateUniform(n, dim, -10.0, 10.0, &rng);
  return b;
}

TEST_F(IoTest, RoundTrip) {
  const GridBucket original = MakeBucket(257, 6, 1);
  const std::string path = Path("a.pmkb");
  ASSERT_TRUE(WriteGridBucket(path, original).ok());
  auto read = ReadGridBucket(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->cell, original.cell);
  EXPECT_EQ(read->points, original.points);
}

TEST_F(IoTest, EmptyBucketRoundTrip) {
  GridBucket empty;
  empty.cell = GridCellId{0, 0};
  empty.points = Dataset(4);
  const std::string path = Path("empty.pmkb");
  ASSERT_TRUE(WriteGridBucket(path, empty).ok());
  auto read = ReadGridBucket(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->points.size(), 0u);
  EXPECT_EQ(read->points.dim(), 4u);
}

TEST_F(IoTest, ChunkedReaderSeesAllPointsInOrder) {
  const GridBucket original = MakeBucket(100, 3, 2);
  const std::string path = Path("chunked.pmkb");
  ASSERT_TRUE(WriteGridBucket(path, original).ok());

  auto reader = GridBucketReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->total_points(), 100u);
  EXPECT_EQ(reader->dim(), 3u);
  EXPECT_EQ(reader->cell(), original.cell);

  Dataset all(3);
  Dataset chunk(3);
  size_t chunks = 0;
  for (;;) {
    auto more = reader->Next(7, &chunk);
    ASSERT_TRUE(more.ok()) << more.status();
    if (!*more) break;
    EXPECT_LE(chunk.size(), 7u);
    all.AppendAll(chunk);
    ++chunks;
  }
  EXPECT_EQ(chunks, 15u);  // ceil(100/7)
  EXPECT_EQ(all, original.points);
}

TEST_F(IoTest, OpenMissingFileFails) {
  EXPECT_TRUE(
      GridBucketReader::Open(Path("missing.pmkb")).status().IsIOError());
}

TEST_F(IoTest, BadMagicRejected) {
  const std::string path = Path("junk.pmkb");
  std::ofstream(path) << "this is not a bucket file at all, sorry";
  EXPECT_TRUE(ReadGridBucket(path).status().IsIOError());
}

TEST_F(IoTest, TruncatedPayloadDetected) {
  const GridBucket original = MakeBucket(64, 4, 3);
  const std::string path = Path("trunc.pmkb");
  ASSERT_TRUE(WriteGridBucket(path, original).ok());
  std::filesystem::resize_file(
      path, std::filesystem::file_size(path) - 64);
  EXPECT_TRUE(ReadGridBucket(path).status().IsIOError());
}

TEST_F(IoTest, CorruptPayloadFailsChecksum) {
  const GridBucket original = MakeBucket(64, 4, 4);
  const std::string path = Path("corrupt.pmkb");
  ASSERT_TRUE(WriteGridBucket(path, original).ok());
  {
    // Flip one payload byte in place.
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40, std::ios::beg);
    char c;
    f.seekg(40, std::ios::beg);
    f.get(c);
    c = static_cast<char>(c ^ 0x5a);
    f.seekp(40, std::ios::beg);
    f.put(c);
  }
  const auto st = ReadGridBucket(path).status();
  ASSERT_TRUE(st.IsIOError());
  EXPECT_NE(st.message().find("checksum"), std::string::npos);
}

TEST_F(IoTest, ReaderNextRejectsZeroMaxPoints) {
  const GridBucket original = MakeBucket(8, 2, 6);
  const std::string path = Path("zero.pmkb");
  ASSERT_TRUE(WriteGridBucket(path, original).ok());
  auto reader = GridBucketReader::Open(path);
  ASSERT_TRUE(reader.ok());
  Dataset chunk(2);
  EXPECT_TRUE(reader->Next(0, &chunk).status().IsInvalidArgument());
}

TEST(Fnv1aTest, KnownProperties) {
  const char data[] = "hello";
  const uint64_t h1 =
      internal::Fnv1a64(data, 5, internal::kFnvOffset);
  const uint64_t h2 =
      internal::Fnv1a64(data, 5, internal::kFnvOffset);
  EXPECT_EQ(h1, h2);
  // Chaining equals one-shot.
  const uint64_t partial = internal::Fnv1a64(data, 2, internal::kFnvOffset);
  const uint64_t chained = internal::Fnv1a64(data + 2, 3, partial);
  EXPECT_EQ(chained, h1);
  // Different data → different hash.
  EXPECT_NE(internal::Fnv1a64("hellp", 5, internal::kFnvOffset), h1);
}

}  // namespace
}  // namespace pmkm
