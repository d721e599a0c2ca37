// The one little-endian byte codec under every pmkm binary format: model
// files, checkpoint journal records and cell payloads, and serve frames
// (DESIGN.md §13). Put* append to a byte vector (doubles as their IEEE-754
// bit pattern, strings as [u32 len][bytes]); Store*/Load* cover
// fixed-offset framing. ByteReader is the one bounds-checked cursor: a
// short span is OutOfRange, never a read past it, and no read allocates
// more than remaining() bytes' worth.

#ifndef PMKM_COMMON_BYTES_H_
#define PMKM_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace pmkm {

inline void StoreU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

inline uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

inline uint64_t LoadU64(const uint8_t* p) {
  return static_cast<uint64_t>(LoadU32(p)) |
         (static_cast<uint64_t>(LoadU32(p + 4)) << 32);
}

inline void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  uint8_t bytes[4];
  StoreU32(bytes, v);
  out->insert(out->end(), bytes, bytes + 4);
}

inline void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

inline void PutI32(std::vector<uint8_t>* out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}

inline void PutF64(std::vector<uint8_t>* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

inline void PutString(std::vector<uint8_t>* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}

inline void PutBool(std::vector<uint8_t>* out, bool v) {
  out->push_back(v ? 1 : 0);
}

/// Bounds-checked typed reads over a byte span, in the Put* encodings.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }

  Status ReadU32(uint32_t* out) {
    PMKM_RETURN_NOT_OK(Need(4));
    *out = LoadU32(data_.data() + pos_);
    pos_ += 4;
    return Status::OK();
  }

  Status ReadU64(uint64_t* out) {
    PMKM_RETURN_NOT_OK(Need(8));
    *out = LoadU64(data_.data() + pos_);
    pos_ += 8;
    return Status::OK();
  }

  Status ReadI32(int32_t* out) {
    uint32_t v = 0;
    PMKM_RETURN_NOT_OK(ReadU32(&v));
    *out = static_cast<int32_t>(v);
    return Status::OK();
  }

  Status ReadI64(int64_t* out) {
    uint64_t v = 0;
    PMKM_RETURN_NOT_OK(ReadU64(&v));
    *out = static_cast<int64_t>(v);
    return Status::OK();
  }

  Status ReadF64(double* out) {
    uint64_t bits = 0;
    PMKM_RETURN_NOT_OK(ReadU64(&bits));
    std::memcpy(out, &bits, sizeof(*out));
    return Status::OK();
  }

  Status ReadBool(bool* out) {
    PMKM_RETURN_NOT_OK(Need(1));
    *out = data_[pos_] != 0;
    pos_ += 1;
    return Status::OK();
  }

  /// [u32 len][bytes]; a length past the end is rejected before any
  /// allocation.
  Status ReadString(std::string* out) {
    uint32_t len = 0;
    PMKM_RETURN_NOT_OK(ReadU32(&len));
    std::span<const uint8_t> bytes;
    PMKM_RETURN_NOT_OK(ReadBytes(len, &bytes));
    out->assign(bytes.begin(), bytes.end());
    return Status::OK();
  }

  /// The next `len` bytes, as a view into the underlying span.
  Status ReadBytes(size_t len, std::span<const uint8_t>* out) {
    PMKM_RETURN_NOT_OK(Need(len));
    *out = data_.subspan(pos_, len);
    pos_ += len;
    return Status::OK();
  }

  /// A u32 element count, rejected unless `count` items of at least
  /// `min_item_bytes` each fit in what remains, so callers may reserve it.
  Status ReadCount(size_t min_item_bytes, uint32_t* count) {
    PMKM_RETURN_NOT_OK(ReadU32(count));
    return CountFits(*count, min_item_bytes);
  }

 private:
  Status Need(size_t n) const {
    if (remaining() < n) {
      return Status::OutOfRange("truncated payload: need " +
                                std::to_string(n) + " bytes, have " +
                                std::to_string(remaining()));
    }
    return Status::OK();
  }

  Status CountFits(uint64_t count, size_t item_bytes) const {
    if (count > remaining() / item_bytes) {
      return Status::OutOfRange("count " + std::to_string(count) +
                                " exceeds the " +
                                std::to_string(remaining()) +
                                "-byte payload");
    }
    return Status::OK();
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace pmkm

#endif  // PMKM_COMMON_BYTES_H_
