// Corruption matrix for the grid-bucket format: every class of on-disk
// damage must surface as a descriptive Status, never a crash or a
// silently-wrong dataset.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "data/io.h"

namespace pmkm {
namespace {

namespace fs = std::filesystem;

Dataset OnePoint(std::vector<double> point) {
  const size_t dim = point.size();
  return Dataset::FromFlat(dim, std::move(point)).value();
}

class IoCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pmkm_corrupt_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  // Writes a healthy 3-point, 2-d bucket and returns its path.
  std::string WriteHealthyBucket(const std::string& name = "cell.pmkb") {
    GridBucket bucket;
    bucket.cell = GridCellId{4, -2};
    bucket.points = Dataset(2);
    bucket.points.Append(std::vector<double>{1.0, 2.0});
    bucket.points.Append(std::vector<double>{3.0, 4.0});
    bucket.points.Append(std::vector<double>{5.0, 6.0});
    const std::string path = (dir_ / name).string();
    EXPECT_TRUE(WriteGridBucket(path, bucket).ok());
    return path;
  }

  static std::vector<char> ReadAll(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  }

  static void WriteAll(const std::string& path,
                       const std::vector<char>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // Overwrites one coordinate of a bucket on disk and re-seals the
  // checksum, so the file is intact and only the value is bad.
  static void PoisonCoordinate(const std::string& path, size_t point,
                               size_t column, size_t dim, double value) {
    std::vector<char> bytes = ReadAll(path);
    const size_t payload = bytes.size() - 32 - sizeof(uint64_t);
    std::memcpy(&bytes[32 + (point * dim + column) * sizeof(double)], &value,
                sizeof(value));
    internal::Xxh64 hash;
    hash.Update(&bytes[32], payload);
    const uint64_t digest = hash.Digest();
    std::memcpy(&bytes[32 + payload], &digest, sizeof(digest));
    WriteAll(path, bytes);
  }

  // Rewrites a bucket as the version-1 format: the header says 1 and the
  // trailer is FNV-1a over the same payload.
  static void ResealAsVersion1(const std::string& path) {
    std::vector<char> bytes = ReadAll(path);
    const size_t payload = bytes.size() - 32 - sizeof(uint64_t);
    const uint32_t version = 1;
    std::memcpy(&bytes[4], &version, sizeof(version));
    const uint64_t hash =
        internal::Fnv1a64(&bytes[32], payload, internal::kFnvOffset);
    std::memcpy(&bytes[32 + payload], &hash, sizeof(hash));
    WriteAll(path, bytes);
  }

  // Reads the whole bucket through the streaming reader, mirroring how the
  // scan operator consumes it (so mid-stream failures surface the same way).
  static Status ReadFully(const std::string& path) {
    auto reader = GridBucketReader::Open(path);
    if (!reader.ok()) return reader.status();
    Dataset chunk(reader->dim());
    for (;;) {
      auto more = reader->Next(2, &chunk);
      if (!more.ok()) return more.status();
      if (!*more) return Status::OK();
    }
  }

  fs::path dir_;
};

TEST_F(IoCorruptionTest, HealthyBucketRoundTrips) {
  const std::string path = WriteHealthyBucket();
  auto bucket = ReadGridBucket(path);
  ASSERT_TRUE(bucket.ok());
  EXPECT_EQ(bucket->points.size(), 3u);
  EXPECT_EQ(bucket->cell, (GridCellId{4, -2}));
  EXPECT_TRUE(ReadFully(path).ok());
}

TEST_F(IoCorruptionTest, ZeroLengthFile) {
  const std::string path = (dir_ / "empty.pmkb").string();
  WriteAll(path, {});
  const Status st = ReadFully(path);
  EXPECT_TRUE(st.IsIOError());
  EXPECT_NE(st.message().find("short header"), std::string::npos) << st;
}

TEST_F(IoCorruptionTest, TruncatedHeader) {
  const std::string path = WriteHealthyBucket();
  std::vector<char> bytes = ReadAll(path);
  bytes.resize(16);  // half the 32-byte header
  WriteAll(path, bytes);
  const Status st = ReadFully(path);
  EXPECT_TRUE(st.IsIOError());
  EXPECT_NE(st.message().find("short header"), std::string::npos) << st;
}

TEST_F(IoCorruptionTest, BadMagic) {
  const std::string path = WriteHealthyBucket();
  std::vector<char> bytes = ReadAll(path);
  bytes[0] = 'X';
  WriteAll(path, bytes);
  const Status st = ReadFully(path);
  EXPECT_TRUE(st.IsIOError());
  EXPECT_NE(st.message().find("bad magic"), std::string::npos) << st;
}

TEST_F(IoCorruptionTest, UnsupportedVersion) {
  const std::string path = WriteHealthyBucket();
  std::vector<char> bytes = ReadAll(path);
  bytes[4] = 99;  // version field, little-endian u32 at offset 4
  WriteAll(path, bytes);
  const Status st = ReadFully(path);
  EXPECT_TRUE(st.IsIOError());
  EXPECT_NE(st.message().find("unsupported bucket version 99"),
            std::string::npos)
      << st;
}

TEST_F(IoCorruptionTest, ZeroDimensionality) {
  const std::string path = WriteHealthyBucket();
  std::vector<char> bytes = ReadAll(path);
  bytes[8] = bytes[9] = bytes[10] = bytes[11] = 0;  // dim u32 at offset 8
  WriteAll(path, bytes);
  const Status st = ReadFully(path);
  EXPECT_TRUE(st.IsIOError());
  EXPECT_NE(st.message().find("zero dimensionality"), std::string::npos)
      << st;
}

TEST_F(IoCorruptionTest, FlippedPayloadByteFailsChecksum) {
  const std::string path = WriteHealthyBucket();
  std::vector<char> bytes = ReadAll(path);
  bytes[32 + 3] ^= 0x40;  // inside the first double of the payload
  WriteAll(path, bytes);
  const Status st = ReadFully(path);
  EXPECT_TRUE(st.IsIOError());
  EXPECT_NE(st.message().find("checksum mismatch"), std::string::npos)
      << st;
}

TEST_F(IoCorruptionTest, FlippedPayloadByteFailsChecksumInBothVersions) {
  for (const uint32_t version : {1u, 2u}) {
    SCOPED_TRACE("version " + std::to_string(version));
    const std::string path =
        WriteHealthyBucket("v" + std::to_string(version) + ".pmkb");
    if (version == 1) ResealAsVersion1(path);
    auto reader = GridBucketReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status();
    EXPECT_EQ(reader->version(), version);
    ASSERT_TRUE(ReadFully(path).ok());
    std::vector<char> bytes = ReadAll(path);
    bytes[32 + 2 * sizeof(double) + 5] ^= 0x01;  // inside the 2nd point
    WriteAll(path, bytes);
    const Status st = ReadFully(path);
    EXPECT_TRUE(st.IsIOError());
    EXPECT_NE(st.message().find("checksum mismatch"), std::string::npos)
        << st;
  }
}

TEST_F(IoCorruptionTest, TruncatedChecksumTrailer) {
  const std::string path = WriteHealthyBucket();
  std::vector<char> bytes = ReadAll(path);
  bytes.resize(bytes.size() - 8);  // drop the whole trailer
  WriteAll(path, bytes);
  const Status st = ReadFully(path);
  EXPECT_TRUE(st.IsIOError());
  EXPECT_NE(st.message().find("missing checksum"), std::string::npos) << st;
}

TEST_F(IoCorruptionTest, TruncatedPayload) {
  const std::string path = WriteHealthyBucket();
  std::vector<char> bytes = ReadAll(path);
  bytes.resize(32 + 2 * sizeof(double));  // one point of three, no trailer
  WriteAll(path, bytes);
  const Status st = ReadFully(path);
  EXPECT_TRUE(st.IsIOError());
  EXPECT_NE(st.message().find("truncated bucket payload"),
            std::string::npos)
      << st;
}

TEST_F(IoCorruptionTest, MissingFile) {
  const Status st = ReadFully((dir_ / "never_written.pmkb").string());
  EXPECT_TRUE(st.IsIOError());
  EXPECT_NE(st.message().find("cannot open"), std::string::npos) << st;
}

// --- non-finite values ----------------------------------------------------

TEST_F(IoCorruptionTest, ReaderRejectsNonFiniteCoordinate) {
  for (double bad : {std::nan(""), std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    const std::string path = WriteHealthyBucket();
    PoisonCoordinate(path, 2, 1, 2, bad);
    const Status st = ReadFully(path);
    EXPECT_TRUE(st.IsInvalidArgument()) << st;
    EXPECT_NE(st.message().find("non-finite value at point 2, column 1"),
              std::string::npos)
        << st;
    EXPECT_NE(st.message().find(path), std::string::npos) << st;
    EXPECT_TRUE(ReadGridBucket(path).status().IsInvalidArgument());
  }
}

TEST_F(IoCorruptionTest, WritersRefuseNonFiniteCoordinate) {
  const std::string path = (dir_ / "nan.pmkb").string();
  auto writer = GridBucketWriter::Open(path, GridCellId{1, 1}, 2);
  ASSERT_TRUE(writer.ok());
  const std::vector<double> good = {1.0, 2.0};
  const std::vector<double> bad = {3.0,
                                   std::numeric_limits<double>::infinity()};
  ASSERT_TRUE(writer->AppendAll(OnePoint(good)).ok());
  const Status st = writer->AppendAll(OnePoint(bad));
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_NE(st.message().find("point 1, column 1"), std::string::npos) << st;
  EXPECT_EQ(writer->points_written(), 1u);  // the bad point was not written

  GridBucket bucket;
  bucket.points = Dataset(2);
  bucket.points.Append(good);
  bucket.points.Append(std::vector<double>{std::nan(""), 0.0});
  const std::string bulk = (dir_ / "nan_bulk.pmkb").string();
  EXPECT_TRUE(WriteGridBucket(bulk, bucket).IsInvalidArgument());
  EXPECT_FALSE(fs::exists(bulk));
  EXPECT_FALSE(fs::exists(bulk + ".tmp"));
}

// --- crash-safe (atomic) publication -----------------------------------

TEST_F(IoCorruptionTest, SuccessfulWriteLeavesNoTmpFile) {
  const std::string path = WriteHealthyBucket();
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST_F(IoCorruptionTest, UnclosedStreamingWriterPublishesNothing) {
  const std::string path = (dir_ / "crashed.pmkb").string();
  {
    auto writer = GridBucketWriter::Open(path, GridCellId{1, 1}, 2);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->AppendAll(OnePoint({1.0, 2.0})).ok());
    // Writer destroyed without Close(): simulated crash mid-bucket.
  }
  EXPECT_FALSE(fs::exists(path));   // destination never appeared
  EXPECT_TRUE(fs::exists(path + ".tmp"));  // partial data stayed staged
  EXPECT_TRUE(ReadFully(path).IsIOError());
}

TEST_F(IoCorruptionTest, ClosedStreamingWriterPublishesAtomically) {
  const std::string path = (dir_ / "done.pmkb").string();
  auto writer = GridBucketWriter::Open(path, GridCellId{1, 1}, 2);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->AppendAll(OnePoint({1.0, 2.0})).ok());
  ASSERT_TRUE(writer->AppendAll(OnePoint({3.0, 4.0})).ok());
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  auto bucket = ReadGridBucket(path);
  ASSERT_TRUE(bucket.ok());
  EXPECT_EQ(bucket->points.size(), 2u);
}

}  // namespace
}  // namespace pmkm
