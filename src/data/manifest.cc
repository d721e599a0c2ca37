#include "data/manifest.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/bytes.h"
#include "common/fault.h"

namespace pmkm {

namespace {

// CRC32C (Castagnoli, polynomial 0x1EDC6F41 reflected = 0x82F63B78),
// byte-at-a-time table. Software implementation: the journal records are
// small and appended off the compute hot path, so table lookup speed is
// plenty.
const uint32_t* Crc32cTable() {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int j = 0; j < 8; ++j) {
        c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + ": " + path + " (" + std::strerror(errno) + ")";
}

// Writes all of `len` bytes, retrying short writes. Returns an IOError on
// failure (partial bytes may have reached the file — recovery discards
// them).
Status WriteFully(int fd, const uint8_t* data, size_t len,
                  const std::string& path) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(ErrnoMessage("journal write failed", path));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

// Builds the on-disk frame for one record:
//   [payload_len u32][type u32][seq u64][payload][crc32c u32]
// with the CRC taken over type|seq|payload.
std::vector<uint8_t> EncodeFrame(uint32_t type, uint64_t seq,
                                 std::span<const uint8_t> payload) {
  std::vector<uint8_t> frame;
  frame.reserve(internal::kRecordFixedBytes + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, type);
  PutU64(&frame, seq);
  frame.insert(frame.end(), payload.begin(), payload.end());
  PutU32(&frame, Crc32c(frame.data() + 4, frame.size() - 4));
  return frame;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t len, uint32_t seed) {
  const uint32_t* table = Crc32cTable();
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

Status FsyncPath(const std::string& path) {
  PMKM_FAULT_POINT("io.fsync");
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError(ErrnoMessage("cannot open for fsync", path));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IOError(ErrnoMessage("fsync failed", path));
  }
  return Status::OK();
}

Status FsyncFileAndDir(const std::string& path) {
  PMKM_RETURN_NOT_OK(FsyncPath(path));
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  return FsyncPath(parent.empty() ? std::string(".") : parent.string());
}

Status AtomicWriteFile(const std::string& path,
                       std::span<const uint8_t> bytes) {
  PMKM_FAULT_POINT("io.write");
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError(ErrnoMessage("cannot open for writing", tmp));
  }
  Status st = WriteFully(fd, bytes.data(), bytes.size(), tmp);
  if (st.ok()) {
    st = FaultRegistry::Global().Hit("io.fsync");
    if (st.ok() && ::fsync(fd) != 0) {
      st = Status::IOError(ErrnoMessage("fsync failed", tmp));
    }
  }
  if (::close(fd) != 0 && st.ok()) {
    st = Status::IOError(ErrnoMessage("close failed", tmp));
  }
  if (!st.ok()) return st;
  PMKM_FAULT_POINT("io.rename");
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IOError("cannot rename into place: " + path + " (" +
                           ec.message() + ")");
  }
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  return FsyncPath(parent.empty() ? std::string(".") : parent.string());
}

Status AtomicWriteFile(const std::string& path, const std::string& bytes) {
  return AtomicWriteFile(
      path, std::span<const uint8_t>(
                reinterpret_cast<const uint8_t*>(bytes.data()),
                bytes.size()));
}

Result<JournalRecovery> RecoverJournal(const std::string& path) {
  JournalRecovery out;
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return out;

  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError(ErrnoMessage("cannot open journal", path));
  }
  std::vector<uint8_t> bytes;
  {
    const uint64_t size = std::filesystem::file_size(path, ec);
    bytes.resize(ec ? 0 : static_cast<size_t>(size));
    size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n = ::read(fd, bytes.data() + done, bytes.size() - done);
      if (n < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        return Status::IOError(ErrnoMessage("cannot read journal", path));
      }
      if (n == 0) break;  // racing truncation; scan what we got
      done += static_cast<size_t>(n);
    }
    bytes.resize(done);
  }
  ::close(fd);

  // Header. A file shorter than the header (crash during creation) is an
  // empty journal with a torn tail, not an error.
  if (bytes.size() < internal::kJournalHeaderBytes) {
    if (!bytes.empty()) {
      out.torn_tail = true;
      out.tail_error = "truncated journal header";
    }
    return out;
  }
  if (LoadU32(bytes.data()) != internal::kJournalMagic) {
    out.torn_tail = true;
    out.tail_error = "bad journal magic";
    return out;
  }
  if (LoadU32(bytes.data() + 4) != internal::kJournalVersion) {
    out.torn_tail = true;
    out.tail_error =
        "unsupported journal version " +
        std::to_string(LoadU32(bytes.data() + 4));
    return out;
  }
  out.valid_bytes = internal::kJournalHeaderBytes;

  // Records: stop at the first frame whose length, framing, or checksum is
  // invalid. Everything before is the last valid epoch.
  size_t pos = internal::kJournalHeaderBytes;
  while (pos < bytes.size()) {
    const size_t remaining = bytes.size() - pos;
    if (remaining < internal::kRecordFixedBytes) {
      out.torn_tail = true;
      out.tail_error = "truncated record framing at offset " +
                       std::to_string(pos);
      break;
    }
    const uint32_t payload_len = LoadU32(bytes.data() + pos);
    if (payload_len > internal::kMaxRecordPayload ||
        remaining - internal::kRecordFixedBytes < payload_len) {
      out.torn_tail = true;
      out.tail_error = "truncated or implausible record (payload " +
                       std::to_string(payload_len) + " bytes) at offset " +
                       std::to_string(pos);
      break;
    }
    const uint32_t stored_crc =
        LoadU32(bytes.data() + pos + 16 + payload_len);
    const uint32_t computed_crc =
        Crc32c(bytes.data() + pos + 4, 12 + payload_len);
    if (stored_crc != computed_crc) {
      out.torn_tail = true;
      out.tail_error =
          "record checksum mismatch at offset " + std::to_string(pos);
      break;
    }
    JournalRecord record;
    record.type = LoadU32(bytes.data() + pos + 4);
    record.seq = LoadU64(bytes.data() + pos + 8);
    // Writers stamp a contiguous sequence starting at 1, so a gap or a
    // duplicate (e.g. a retried append that reached the disk twice) is
    // corruption: the chain ends at the previous record.
    if (record.seq != out.epoch + 1) {
      out.torn_tail = true;
      out.tail_error = "record sequence discontinuity (seq " +
                       std::to_string(record.seq) + " after epoch " +
                       std::to_string(out.epoch) + ") at offset " +
                       std::to_string(pos);
      break;
    }
    record.payload.assign(bytes.begin() + static_cast<ptrdiff_t>(pos + 16),
                          bytes.begin() +
                              static_cast<ptrdiff_t>(pos + 16 + payload_len));
    out.epoch = record.seq;
    out.records.push_back(std::move(record));
    pos += internal::kRecordFixedBytes + payload_len;
    out.valid_bytes = pos;
  }
  return out;
}

Result<JournalWriter> JournalWriter::Open(const std::string& path,
                                          bool truncate) {
  JournalWriter writer;
  writer.path_ = path;
  if (!truncate) {
    PMKM_ASSIGN_OR_RETURN(writer.recovered_, RecoverJournal(path));
  }

  const int fd = ::open(path.c_str(),
                        O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError(ErrnoMessage("cannot open journal", path));
  }
  writer.fd_ = fd;

  const bool fresh =
      truncate || writer.recovered_.valid_bytes < internal::kJournalHeaderBytes;
  const uint64_t keep =
      fresh ? 0 : writer.recovered_.valid_bytes;
  // Drop any torn tail (and, for a fresh journal, everything) so appends
  // always extend a valid prefix.
  if (::ftruncate(fd, static_cast<off_t>(keep)) != 0) {
    return Status::IOError(ErrnoMessage("cannot truncate journal", path));
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    return Status::IOError(ErrnoMessage("cannot seek journal", path));
  }
  if (fresh) {
    writer.recovered_ = JournalRecovery{};
    uint8_t header[internal::kJournalHeaderBytes];
    StoreU32(header, internal::kJournalMagic);
    StoreU32(header + 4, internal::kJournalVersion);
    PMKM_RETURN_NOT_OK(WriteFully(fd, header, sizeof(header), path));
    writer.bytes_appended_ += sizeof(header);
  }
  writer.next_seq_ = writer.recovered_.epoch + 1;
  return writer;
}

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : fd_(other.fd_),
      path_(std::move(other.path_)),
      next_seq_(other.next_seq_),
      bytes_appended_(other.bytes_appended_),
      recovered_(std::move(other.recovered_)) {
  other.fd_ = -1;
}

JournalWriter& JournalWriter::operator=(JournalWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    next_seq_ = other.next_seq_;
    bytes_appended_ = other.bytes_appended_;
    recovered_ = std::move(other.recovered_);
    other.fd_ = -1;
  }
  return *this;
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status JournalWriter::Append(uint32_t type,
                             std::span<const uint8_t> payload) {
  if (fd_ < 0) return Status::FailedPrecondition("journal writer closed");
  if (payload.size() > internal::kMaxRecordPayload) {
    return Status::InvalidArgument("journal record payload too large");
  }
  PMKM_FAULT_POINT("journal.append");
  const std::vector<uint8_t> frame = EncodeFrame(type, next_seq_, payload);
  // Torn-write fault: persist only a prefix of the frame, then report the
  // failure — exactly what a power loss mid-append leaves behind.
  // Recovery must discard the partial frame.
  if (const Status torn = FaultRegistry::Global().Hit("journal.torn");
      !torn.ok()) {
    (void)WriteFully(fd_, frame.data(), frame.size() / 2, path_);
    (void)::fsync(fd_);
    return torn;
  }
  PMKM_RETURN_NOT_OK(WriteFully(fd_, frame.data(), frame.size(), path_));
  ++next_seq_;
  bytes_appended_ += frame.size();
  return Status::OK();
}

Status JournalWriter::Sync() {
  if (fd_ < 0) return Status::FailedPrecondition("journal writer closed");
  PMKM_FAULT_POINT("io.fsync");
  if (::fsync(fd_) != 0) {
    return Status::IOError(ErrnoMessage("fsync failed", path_));
  }
  return Status::OK();
}

Status JournalWriter::Close() {
  if (fd_ < 0) return Status::FailedPrecondition("journal writer closed");
  const Status st = Sync();
  ::close(fd_);
  fd_ = -1;
  return st;
}

}  // namespace pmkm
