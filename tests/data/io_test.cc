#include "data/io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/generator.h"
#include "data/synthetic.h"

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

TEST_F(IoTest, WriterWritesVersion2WithXxh64Trailer) {
  const GridBucket original = MakeBucket(50, 3, 7);
  const std::string path = Path("v2.pmkb");
  ASSERT_TRUE(WriteGridBucket(path, original).ok());
  auto reader = GridBucketReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->version(), 2u);
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  const size_t payload = 50 * 3 * sizeof(double);
  ASSERT_EQ(bytes.size(), 32 + payload + sizeof(uint64_t));
  internal::Xxh64 hash;
  hash.Update(&bytes[32], payload);
  uint64_t trailer = 0;
  std::memcpy(&trailer, &bytes[32 + payload], sizeof(trailer));
  EXPECT_EQ(trailer, hash.Digest());
}

TEST_F(IoTest, NextReusesTheCallersStorage) {
  const GridBucket original = MakeBucket(100, 3, 8);
  const std::string path = Path("reuse.pmkb");
  ASSERT_TRUE(WriteGridBucket(path, original).ok());
  auto reader = GridBucketReader::Open(path);
  ASSERT_TRUE(reader.ok());
  Dataset chunk(3);
  chunk.Reshape(3, 40);
  const double* storage = chunk.data();
  Dataset all(3);
  for (;;) {
    auto more = reader->Next(40, &chunk);
    ASSERT_TRUE(more.ok()) << more.status();
    if (!*more) break;
    EXPECT_EQ(chunk.data(), storage);  // read in place, never reallocated
    all.AppendAll(chunk);
  }
  EXPECT_EQ(all, original.points);
}

// The bucket corpus the fuzzer starts from holds version-1 files written
// before version 2 existed: seed.pmkb is healthy, badsum.pmkb has a wrong
// trailer.
TEST_F(IoTest, ReadsVersion1Buckets) {
  const std::string corpus = PMKM_BUCKET_CORPUS_DIR;
  auto reader = GridBucketReader::Open(corpus + "/seed.pmkb");
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->version(), 1u);
  auto bucket = ReadGridBucket(corpus + "/seed.pmkb");
  ASSERT_TRUE(bucket.ok()) << bucket.status();
  EXPECT_EQ(bucket->cell, (GridCellId{3, -4}));
  Dataset expected(2);
  expected.Append(std::vector<double>{1.0, 2.0});
  expected.Append(std::vector<double>{3.5, 4.5});
  expected.Append(std::vector<double>{-1.0, 0.25});
  EXPECT_EQ(bucket->points, expected);

  const Status st = ReadGridBucket(corpus + "/badsum.pmkb").status();
  EXPECT_TRUE(st.IsIOError());
  EXPECT_NE(st.message().find("checksum mismatch"), std::string::npos) << st;
}

TEST_F(IoTest, WriterReproducesTheVersion2Seed) {
  // seed_v2.pmkb holds seed.pmkb's points as version 2; the writer must
  // produce it byte for byte.
  GridBucket bucket;
  bucket.cell = GridCellId{3, -4};
  bucket.points = Dataset(2);
  bucket.points.Append(std::vector<double>{1.0, 2.0});
  bucket.points.Append(std::vector<double>{3.5, 4.5});
  bucket.points.Append(std::vector<double>{-1.0, 0.25});
  const std::string path = Path("seed_v2.pmkb");
  ASSERT_TRUE(WriteGridBucket(path, bucket).ok());
  const auto slurp = [](const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  const std::string golden =
      slurp(std::string(PMKM_BUCKET_CORPUS_DIR) + "/seed_v2.pmkb");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(slurp(path), golden);
}

TEST_F(IoTest, Xxh64KnownAnswers) {
  const auto digest = [](const std::string& text) {
    internal::Xxh64 hash;
    hash.Update(text.data(), text.size());
    return hash.Digest();
  };
  EXPECT_EQ(digest(""), 0xef46db3751d8e999ULL);
  EXPECT_EQ(digest("a"), 0xd24ec4f1a98c6e5bULL);
  EXPECT_EQ(digest("abc"), 0x44bc2cf5ad770999ULL);

  // Any split of the input into Update calls gives the one-shot digest.
  Rng rng(11);
  std::vector<unsigned char> bytes(1000);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.Next());
  internal::Xxh64 one_shot;
  one_shot.Update(bytes.data(), bytes.size());
  for (int trial = 0; trial < 50; ++trial) {
    internal::Xxh64 split;
    size_t at = 0;
    while (at < bytes.size()) {
      const size_t len = std::min<size_t>(bytes.size() - at,
                                          rng.UniformInt(trial % 2 ? 80 : 9));
      split.Update(bytes.data() + at, len);
      at += len;
    }
    EXPECT_EQ(split.Digest(), one_shot.Digest()) << "trial " << trial;
  }
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
