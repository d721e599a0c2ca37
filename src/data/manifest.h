// Crash-safe run journal ("manifest") — the durability substrate for
// checkpoint/restore (DESIGN.md §13).
//
// A journal is an append-only file of length-prefixed, CRC32C-checksummed
// records:
//
//   file:   [magic "PMKJ"] [version u32]
//   record: [payload_len u32] [type u32] [seq u64]
//           [payload_len bytes] [crc32c u32 over type|seq|payload]
//
// All integers are little-endian. `seq` increases by one per record; the
// sequence number of the last valid record is the journal's *epoch*.
// Appends are written with POSIX write(2) and made durable with fsync(2)
// (batched by the caller via Sync()). Recovery scans the file from the
// start and stops at the first record whose framing or checksum is
// invalid or whose sequence number breaks the contiguous chain:
// everything before that point is the last valid epoch,
// everything after (a torn append, a partial power-loss write, bit rot)
// is discarded. A writer that resumes an existing journal truncates the
// torn tail first so new records always extend a valid prefix.
//
// Appends go through common/file.h's WriteFully. Whole files (models,
// exports, snapshots) are not journaled: they are published with
// AtomicWriteFile, also in common/file.h.

#ifndef PMKM_DATA_MANIFEST_H_
#define PMKM_DATA_MANIFEST_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"

namespace pmkm {

/// One decoded journal record.
struct JournalRecord {
  uint32_t type = 0;
  uint64_t seq = 0;
  std::vector<uint8_t> payload;
};

/// What RecoverJournal found on disk.
struct JournalRecovery {
  /// All consecutively valid records, in file order.
  std::vector<JournalRecord> records;

  /// Byte offset of the end of the valid prefix (= file size when clean).
  uint64_t valid_bytes = 0;

  /// Sequence number of the last valid record (0 when none): the epoch
  /// recovery landed on.
  uint64_t epoch = 0;

  /// True when bytes past the valid prefix were discarded (torn append,
  /// truncated record, checksum mismatch).
  bool torn_tail = false;

  /// Human-readable reason the scan stopped, when torn_tail is set.
  std::string tail_error;
};

/// Scans `path` and returns every valid record plus where the valid prefix
/// ends. A missing file is an empty (not erroneous) recovery; corruption
/// is never an error — it only bounds the valid prefix. Only a file that
/// exists but cannot be opened/read yields an error.
Result<JournalRecovery> RecoverJournal(const std::string& path);

/// Append-only journal writer over a POSIX fd.
///
/// Open() recovers the existing journal (if any), truncates any torn tail
/// so appends extend a valid prefix, and positions at the end. Not
/// thread-safe: one writer, typically owned by the single operator that
/// produces commit records.
class JournalWriter {
 public:
  /// Opens (creating if needed) the journal at `path`. With `truncate`,
  /// any existing content is discarded and a fresh journal header is
  /// written. The recovery the writer resumed from is available via
  /// recovered().
  static Result<JournalWriter> Open(const std::string& path,
                                    bool truncate = false);

  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter();

  /// What Open() recovered before truncating the torn tail.
  const JournalRecovery& recovered() const { return recovered_; }

  /// Sequence number the next Append will stamp.
  uint64_t next_seq() const { return next_seq_; }

  /// Journal bytes appended by this writer (excludes recovered content).
  uint64_t bytes_appended() const { return bytes_appended_; }

  /// Appends one record (not yet durable — call Sync()). Fault sites:
  /// "journal.append" fails the write; "journal.torn" writes a partial
  /// frame and then reports the error, simulating a torn write that
  /// recovery must discard.
  Status Append(uint32_t type, std::span<const uint8_t> payload);

  /// fsync(2)s everything appended so far. Fault site: "io.fsync".
  /// The destructor closes without syncing (a crashed process would not
  /// have synced either); call Sync() first for a clean shutdown.
  Status Sync();

 private:
  JournalWriter() = default;

  int fd_ = -1;
  std::string path_;
  uint64_t next_seq_ = 1;
  uint64_t bytes_appended_ = 0;
  JournalRecovery recovered_;
};

/// CRC32C (Castagnoli) over a byte buffer, chainable via `seed` (pass the
/// previous return value to continue). Used by the journal framing.
uint32_t Crc32c(const void* data, size_t len, uint32_t seed = 0);

namespace internal {
/// Journal file magic "PMKJ" and current format version, exposed for the
/// corruption tests and pmkm_inspect.
inline constexpr uint32_t kJournalMagic = 0x4a4b4d50;  // "PMKJ"
inline constexpr uint32_t kJournalVersion = 1;
/// Size of the journal file header and of a record's fixed framing.
inline constexpr size_t kJournalHeaderBytes = 8;
inline constexpr size_t kRecordFixedBytes = 20;  // len+type+seq+crc
/// Upper bound on a record payload; a corrupt length field must never
/// drive an allocation.
inline constexpr uint32_t kMaxRecordPayload = 64u << 20;  // 64 MiB
}  // namespace internal

}  // namespace pmkm

#endif  // PMKM_DATA_MANIFEST_H_
