// The run journal's durability contract: whatever is on disk — clean,
// torn, flipped, duplicated, truncated at any byte — recovery must land on
// the last valid epoch without crashing, and a resumed writer must extend
// a valid prefix.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault.h"
#include "data/manifest.h"

namespace pmkm {
namespace {

namespace fs = std::filesystem;

class ManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pmkm_manifest_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
    FaultRegistry::Global().Reset();
  }
  void TearDown() override {
    FaultRegistry::Global().Reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string JournalPath(const std::string& name = "j.pmkj") const {
    return (dir_ / name).string();
  }

  static std::vector<uint8_t> Payload(size_t len, uint8_t fill) {
    return std::vector<uint8_t>(len, fill);
  }

  // Writes `n` records (type = i+1, payload i+1 bytes of value i) and
  // returns the journal path.
  std::string WriteJournal(size_t n) {
    const std::string path = JournalPath();
    auto writer = JournalWriter::Open(path);
    EXPECT_TRUE(writer.ok()) << writer.status();
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(
          writer->Append(static_cast<uint32_t>(i + 1),
                         Payload(i + 1, static_cast<uint8_t>(i)))
              .ok());
    }
    EXPECT_TRUE(writer->Close().ok());
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

  fs::path dir_;
};

TEST_F(ManifestTest, Crc32cKnownVectors) {
  // RFC 3720 / iSCSI test vectors for CRC32C.
  const std::vector<uint8_t> zeros(32, 0x00);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8a9136aau);
  const std::vector<uint8_t> ones(32, 0xff);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62a8ab43u);
  const char* s = "123456789";
  EXPECT_EQ(Crc32c(s, 9), 0xe3069283u);
}

TEST_F(ManifestTest, GoldenHeaderAndRecordFrame) {
  // The 8-byte file header and one record frame, pinned as hex:
  // [magic][version] then [len u32][type u32][seq u64][payload][crc32c].
  const std::string path = JournalPath();
  {
    auto writer = JournalWriter::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE(
        writer->Append(0x01020304u, std::vector<uint8_t>{0xde, 0xad, 0xbe})
            .ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (char c : ReadAll(path)) {
    const auto byte = static_cast<uint8_t>(c);
    hex += kDigits[byte >> 4];
    hex += kDigits[byte & 0xf];
  }
  EXPECT_EQ(hex,
      "504d4b4a0100000003000000040302010100000000000000deadbed0"
      "566d7c");
}

TEST_F(ManifestTest, EmptyAndMissingJournals) {
  auto missing = RecoverJournal(JournalPath("absent.pmkj"));
  ASSERT_TRUE(missing.ok()) << missing.status();
  EXPECT_TRUE(missing->records.empty());
  EXPECT_EQ(missing->epoch, 0u);
  EXPECT_FALSE(missing->torn_tail);

  const std::string path = WriteJournal(0);
  auto empty = RecoverJournal(path);
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_TRUE(empty->records.empty());
  EXPECT_EQ(empty->epoch, 0u);
  EXPECT_FALSE(empty->torn_tail);
  EXPECT_EQ(empty->valid_bytes, internal::kJournalHeaderBytes);
}

TEST_F(ManifestTest, RoundTripManyRecords) {
  const size_t kRecords = 64;
  const std::string path = WriteJournal(kRecords);
  auto recovery = RecoverJournal(path);
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  ASSERT_EQ(recovery->records.size(), kRecords);
  EXPECT_EQ(recovery->epoch, kRecords);
  EXPECT_FALSE(recovery->torn_tail);
  for (size_t i = 0; i < kRecords; ++i) {
    const JournalRecord& r = recovery->records[i];
    EXPECT_EQ(r.type, i + 1);
    EXPECT_EQ(r.seq, i + 1);
    ASSERT_EQ(r.payload.size(), i + 1);
    for (uint8_t b : r.payload) EXPECT_EQ(b, static_cast<uint8_t>(i));
  }
}

TEST_F(ManifestTest, ReopenResumesSequence) {
  const std::string path = WriteJournal(3);
  auto writer = JournalWriter::Open(path);
  ASSERT_TRUE(writer.ok()) << writer.status();
  EXPECT_EQ(writer->recovered().epoch, 3u);
  EXPECT_EQ(writer->next_seq(), 4u);
  ASSERT_TRUE(writer->Append(9, Payload(4, 0xaa)).ok());
  ASSERT_TRUE(writer->Close().ok());

  auto recovery = RecoverJournal(path);
  ASSERT_TRUE(recovery.ok());
  ASSERT_EQ(recovery->records.size(), 4u);
  EXPECT_EQ(recovery->records.back().seq, 4u);
  EXPECT_EQ(recovery->records.back().type, 9u);
}

TEST_F(ManifestTest, TruncateModeDiscardsHistory) {
  const std::string path = WriteJournal(5);
  auto writer = JournalWriter::Open(path, /*truncate=*/true);
  ASSERT_TRUE(writer.ok());
  EXPECT_EQ(writer->next_seq(), 1u);
  ASSERT_TRUE(writer->Append(1, Payload(1, 0)).ok());
  ASSERT_TRUE(writer->Close().ok());
  auto recovery = RecoverJournal(path);
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(recovery->records.size(), 1u);
  EXPECT_EQ(recovery->epoch, 1u);
}

// Truncation at EVERY byte boundary of the last record: the valid prefix
// must always be the first two records, never a crash, never a phantom
// third record.
TEST_F(ManifestTest, TruncationAtEveryByteOfLastRecord) {
  const std::string path = WriteJournal(3);
  const std::vector<char> full = ReadAll(path);
  const size_t last_record_bytes = internal::kRecordFixedBytes + 3;
  const size_t prefix_end = full.size() - last_record_bytes;

  for (size_t cut = prefix_end; cut < full.size(); ++cut) {
    WriteAll(path, std::vector<char>(full.begin(), full.begin() + cut));
    auto recovery = RecoverJournal(path);
    ASSERT_TRUE(recovery.ok()) << "cut at " << cut;
    EXPECT_EQ(recovery->records.size(), 2u) << "cut at " << cut;
    EXPECT_EQ(recovery->epoch, 2u) << "cut at " << cut;
    EXPECT_EQ(recovery->torn_tail, cut != prefix_end) << "cut at " << cut;
    EXPECT_EQ(recovery->valid_bytes, prefix_end) << "cut at " << cut;
  }
}

// A truncated journal, reopened for append, extends the valid prefix and
// the discarded tail stays gone.
TEST_F(ManifestTest, ReopenAfterTornTailTruncatesAndResumes) {
  const std::string path = WriteJournal(3);
  std::vector<char> bytes = ReadAll(path);
  bytes.resize(bytes.size() - 5);  // tear the last record
  WriteAll(path, bytes);

  auto writer = JournalWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  EXPECT_TRUE(writer->recovered().torn_tail);
  EXPECT_EQ(writer->recovered().epoch, 2u);
  EXPECT_EQ(writer->next_seq(), 3u);
  ASSERT_TRUE(writer->Append(7, Payload(2, 0xbb)).ok());
  ASSERT_TRUE(writer->Close().ok());

  auto recovery = RecoverJournal(path);
  ASSERT_TRUE(recovery.ok());
  ASSERT_EQ(recovery->records.size(), 3u);
  EXPECT_FALSE(recovery->torn_tail);
  EXPECT_EQ(recovery->records.back().type, 7u);
  EXPECT_EQ(recovery->records.back().seq, 3u);
}

// Bit flips across every byte of the file: recovery never crashes and
// never returns MORE than the records preceding the flipped byte.
TEST_F(ManifestTest, BitFlipAtEveryByteNeverCrashes) {
  const std::string path = WriteJournal(3);
  const std::vector<char> full = ReadAll(path);
  for (size_t i = 0; i < full.size(); ++i) {
    std::vector<char> bytes = full;
    bytes[i] = static_cast<char>(bytes[i] ^ 0x40);
    WriteAll(path, bytes);
    auto recovery = RecoverJournal(path);
    ASSERT_TRUE(recovery.ok()) << "flip at " << i;
    EXPECT_LE(recovery->records.size(), 3u) << "flip at " << i;
    // A flip inside record k's frame invalidates it and everything after.
    if (recovery->records.size() < 3) {
      EXPECT_TRUE(recovery->torn_tail) << "flip at " << i;
      EXPECT_FALSE(recovery->tail_error.empty()) << "flip at " << i;
    }
    for (size_t r = 0; r < recovery->records.size(); ++r) {
      EXPECT_EQ(recovery->records[r].seq, r + 1) << "flip at " << i;
    }
  }
}

// A duplicated tail record (e.g. a retried append that survived twice) is
// structurally valid framing but breaks the seq chain — the duplicate is
// discarded as a torn tail.
TEST_F(ManifestTest, DuplicateTailRecordDiscarded) {
  const std::string path = WriteJournal(2);
  std::vector<char> bytes = ReadAll(path);
  const size_t last_record_bytes = internal::kRecordFixedBytes + 2;
  const std::vector<char> tail(bytes.end() - last_record_bytes,
                               bytes.end());
  bytes.insert(bytes.end(), tail.begin(), tail.end());
  WriteAll(path, bytes);

  auto recovery = RecoverJournal(path);
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(recovery->records.size(), 2u);
  EXPECT_EQ(recovery->epoch, 2u);
  EXPECT_TRUE(recovery->torn_tail);
}

TEST_F(ManifestTest, BadMagicAndVersionAreEmptyNotFatal) {
  const std::string path = JournalPath();
  WriteAll(path, {'J', 'U', 'N', 'K', 1, 0, 0, 0});
  auto recovery = RecoverJournal(path);
  ASSERT_TRUE(recovery.ok());
  EXPECT_TRUE(recovery->records.empty());
  EXPECT_TRUE(recovery->torn_tail);

  // Short file (less than a header).
  WriteAll(path, {'P'});
  recovery = RecoverJournal(path);
  ASSERT_TRUE(recovery.ok());
  EXPECT_TRUE(recovery->records.empty());
}

TEST_F(ManifestTest, CorruptLengthFieldCannotDriveAllocation) {
  const std::string path = WriteJournal(1);
  std::vector<char> bytes = ReadAll(path);
  // Overwrite the first record's payload_len with a huge value.
  const size_t off = internal::kJournalHeaderBytes;
  bytes[off] = static_cast<char>(0xff);
  bytes[off + 1] = static_cast<char>(0xff);
  bytes[off + 2] = static_cast<char>(0xff);
  bytes[off + 3] = static_cast<char>(0x7f);
  WriteAll(path, bytes);
  auto recovery = RecoverJournal(path);
  ASSERT_TRUE(recovery.ok());
  EXPECT_TRUE(recovery->records.empty());
  EXPECT_TRUE(recovery->torn_tail);
}

// The "journal.torn" fault writes half a frame then errors — recovery must
// land on the pre-append epoch, exactly like a real torn write.
TEST_F(ManifestTest, TornWriteFaultLeavesRecoverablePrefix) {
  const std::string path = WriteJournal(2);
  {
    auto writer = JournalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    FaultRegistry::Global().Arm("journal.torn", FaultSpec{.nth = 1});
    EXPECT_FALSE(writer->Append(5, Payload(8, 0xcc)).ok());
    FaultRegistry::Global().Reset();
  }
  auto recovery = RecoverJournal(path);
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(recovery->records.size(), 2u);
  EXPECT_EQ(recovery->epoch, 2u);
  EXPECT_TRUE(recovery->torn_tail);

  // And a writer reopening it truncates the garbage and resumes cleanly.
  auto writer = JournalWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  EXPECT_EQ(writer->next_seq(), 3u);
  ASSERT_TRUE(writer->Append(5, Payload(8, 0xcc)).ok());
  ASSERT_TRUE(writer->Close().ok());
  recovery = RecoverJournal(path);
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(recovery->records.size(), 3u);
  EXPECT_FALSE(recovery->torn_tail);
}

TEST_F(ManifestTest, AppendFaultReturnsError) {
  const std::string path = JournalPath();
  auto writer = JournalWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  FaultRegistry::Global().Arm("journal.append", FaultSpec{.nth = 1});
  EXPECT_FALSE(writer->Append(1, Payload(1, 0)).ok());
  FaultRegistry::Global().Reset();
  ASSERT_TRUE(writer->Append(1, Payload(1, 0)).ok());
  ASSERT_TRUE(writer->Close().ok());
}

TEST_F(ManifestTest, SyncFaultPropagates) {
  const std::string path = JournalPath();
  auto writer = JournalWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(1, Payload(1, 0)).ok());
  FaultRegistry::Global().Arm("io.fsync", FaultSpec{.nth = 1});
  EXPECT_FALSE(writer->Sync().ok());
  FaultRegistry::Global().Reset();
  EXPECT_TRUE(writer->Sync().ok());
}

TEST_F(ManifestTest, AtomicWriteFileRoundTrip) {
  const std::string path = (dir_ / "blob.bin").string();
  const std::string content = "hello\0world durable bytes";
  ASSERT_TRUE(AtomicWriteFile(path, content).ok());
  const std::vector<char> read = ReadAll(path);
  EXPECT_EQ(std::string(read.begin(), read.end()), content);
  // No staging residue.
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  // Overwrite is atomic too.
  ASSERT_TRUE(AtomicWriteFile(path, std::string("v2")).ok());
  const std::vector<char> read2 = ReadAll(path);
  EXPECT_EQ(std::string(read2.begin(), read2.end()), "v2");
}

TEST_F(ManifestTest, AtomicWriteFileFaultsLeaveTargetUntouched) {
  const std::string path = (dir_ / "blob.bin").string();
  ASSERT_TRUE(AtomicWriteFile(path, std::string("v1")).ok());

  FaultRegistry::Global().Arm("io.rename", FaultSpec{.nth = 1});
  EXPECT_FALSE(AtomicWriteFile(path, std::string("v2")).ok());
  FaultRegistry::Global().Reset();
  const std::vector<char> read = ReadAll(path);
  EXPECT_EQ(std::string(read.begin(), read.end()), "v1");

  FaultRegistry::Global().Arm("io.fsync", FaultSpec{.nth = 1});
  EXPECT_FALSE(AtomicWriteFile(path, std::string("v3")).ok());
  FaultRegistry::Global().Reset();
  const std::vector<char> read2 = ReadAll(path);
  EXPECT_EQ(std::string(read2.begin(), read2.end()), "v1");
}

TEST_F(ManifestTest, FsyncHelpers) {
  const std::string path = (dir_ / "f.bin").string();
  ASSERT_TRUE(AtomicWriteFile(path, std::string("x")).ok());
  EXPECT_TRUE(FsyncPath(path).ok());
  EXPECT_TRUE(FsyncPath(dir_.string()).ok());
  EXPECT_TRUE(FsyncFileAndDir(path).ok());
  EXPECT_FALSE(FsyncPath((dir_ / "absent").string()).ok());
}

}  // namespace
}  // namespace pmkm
