#include "data/io.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>

#include "common/bytes.h"
#include "common/fault.h"
#include "common/file.h"

namespace pmkm {
namespace internal {

uint64_t Fnv1a64(const void* data, size_t len, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

constexpr uint64_t kXxhPrime1 = 0x9e3779b185ebca87ULL;
constexpr uint64_t kXxhPrime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr uint64_t kXxhPrime3 = 0x165667b19e3779f9ULL;
constexpr uint64_t kXxhPrime4 = 0x85ebca77c2b2ae63ULL;
constexpr uint64_t kXxhPrime5 = 0x27d4eb2f165667c5ULL;

uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

// Little-endian loads, the byte order of the format.
uint64_t Load64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
uint32_t Load32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t XxhRound(uint64_t acc, uint64_t input) {
  acc += input * kXxhPrime2;
  return Rotl(acc, 31) * kXxhPrime1;
}

uint64_t XxhMergeRound(uint64_t acc, uint64_t lane) {
  acc ^= XxhRound(0, lane);
  return acc * kXxhPrime1 + kXxhPrime4;
}

}  // namespace

Xxh64::Xxh64()
    : lanes_{kXxhPrime1 + kXxhPrime2, kXxhPrime2, 0, 0 - kXxhPrime1},
      buffer_{} {}

void Xxh64::Update(const void* data, size_t len) {
  if (len == 0) return;  // `data` may be null
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + len;
  total_len_ += len;
  if (buffered_ + len < sizeof(buffer_)) {
    std::memcpy(buffer_ + buffered_, p, len);
    buffered_ += len;
    return;
  }
  if (buffered_ > 0) {
    const size_t fill = sizeof(buffer_) - buffered_;
    std::memcpy(buffer_ + buffered_, p, fill);
    p += fill;
    for (int lane = 0; lane < 4; ++lane) {
      lanes_[lane] = XxhRound(lanes_[lane], Load64(buffer_ + 8 * lane));
    }
    buffered_ = 0;
  }
  // Whole 32-byte stripes straight from the input, four lanes in flight.
  uint64_t v1 = lanes_[0], v2 = lanes_[1], v3 = lanes_[2], v4 = lanes_[3];
  for (; end - p >= 32; p += 32) {
    v1 = XxhRound(v1, Load64(p));
    v2 = XxhRound(v2, Load64(p + 8));
    v3 = XxhRound(v3, Load64(p + 16));
    v4 = XxhRound(v4, Load64(p + 24));
  }
  lanes_[0] = v1, lanes_[1] = v2, lanes_[2] = v3, lanes_[3] = v4;
  buffered_ = static_cast<size_t>(end - p);
  std::memcpy(buffer_, p, buffered_);
}

uint64_t Xxh64::Digest() const {
  uint64_t h;
  if (total_len_ >= 32) {
    h = Rotl(lanes_[0], 1) + Rotl(lanes_[1], 7) + Rotl(lanes_[2], 12) +
        Rotl(lanes_[3], 18);
    for (const uint64_t lane : lanes_) h = XxhMergeRound(h, lane);
  } else {
    h = kXxhPrime5;  // seed 0
  }
  h += total_len_;
  const unsigned char* p = buffer_;
  const unsigned char* const end = buffer_ + buffered_;
  for (; end - p >= 8; p += 8) {
    h ^= XxhRound(0, Load64(p));
    h = Rotl(h, 27) * kXxhPrime1 + kXxhPrime4;
  }
  if (end - p >= 4) {
    h ^= static_cast<uint64_t>(Load32(p)) * kXxhPrime1;
    h = Rotl(h, 23) * kXxhPrime2 + kXxhPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= *p * kXxhPrime5;
    h = Rotl(h, 11) * kXxhPrime1;
  }
  h ^= h >> 33;
  h *= kXxhPrime2;
  h ^= h >> 29;
  h *= kXxhPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace internal

namespace {

constexpr uint32_t kMagic = 0x424b4d50;  // "PMKB" little-endian
// The version GridBucketWriter writes (XXH64 trailer); the reader also
// accepts kFnvVersion.
constexpr uint32_t kVersion = 2;
constexpr uint32_t kFnvVersion = 1;

// Upper bound on the per-point dimensionality a bucket header may claim.
// Real workloads are low-dimensional (the paper uses <= 64); the bound
// exists so a corrupt/hostile header cannot request absurd allocations.
constexpr uint32_t kMaxBucketDim = 1u << 20;

// The header (io.h): magic, version, dim, lat, lon, pad, then the u64
// point count at kCountOffset, which Close() back-patches.
constexpr size_t kHeaderBytes = 32;
constexpr size_t kCountOffset = 24;

// Crash-safe publication: data is staged in a `<path>.tmp` sibling and
// renamed into place only once complete, so a killed process never leaves
// a half-written bucket at the destination path. Durability (not just
// atomicity) needs the fsync pair around the rename: without fsyncing the
// staged file first, the rename can publish a name whose *contents* are
// still unflushed after power loss; without fsyncing the parent directory
// after, the directory entry itself can vanish.
std::string TmpPath(const std::string& path) { return path + ".tmp"; }

// Rejects NaN and ±inf: one such coordinate poisons every distance, SSE
// and centroid it touches. `first_point` is the file index of values[0]'s
// point; indices in the message are 0-based.
Status CheckFinite(const double* values, size_t num_points, size_t dim,
                   size_t first_point, const std::string& path) {
  for (size_t i = 0; i < num_points * dim; ++i) {
    if (!std::isfinite(values[i])) {
      return Status::InvalidArgument(
          "non-finite value at point " +
          std::to_string(first_point + i / dim) + ", column " +
          std::to_string(i % dim) + " (0-based) in " + path);
    }
  }
  return Status::OK();
}

}  // namespace

Status WriteGridBucket(const std::string& path, const GridBucket& bucket) {
  // Checked before Open so that refused input leaves no staging file.
  PMKM_RETURN_NOT_OK(CheckFinite(bucket.points.data(), bucket.points.size(),
                                 bucket.points.dim(), 0, path));
  PMKM_ASSIGN_OR_RETURN(
      GridBucketWriter writer,
      GridBucketWriter::Open(path, bucket.cell, bucket.points.dim()));
  PMKM_RETURN_NOT_OK(writer.AppendAll(bucket.points));
  return writer.Close();
}

Result<GridBucket> ReadGridBucket(const std::string& path) {
  PMKM_ASSIGN_OR_RETURN(GridBucketReader reader,
                        GridBucketReader::Open(path));
  GridBucket bucket;
  bucket.cell = reader.cell();
  bucket.points = Dataset(reader.dim());
  bucket.points.Reserve(
      std::min(reader.total_points(), reader.available_points()));
  Dataset chunk(reader.dim());
  for (;;) {
    PMKM_ASSIGN_OR_RETURN(bool more, reader.Next(1 << 16, &chunk));
    if (!more) break;
    bucket.points.AppendAll(chunk);
  }
  return bucket;
}

Result<GridBucketWriter> GridBucketWriter::Open(const std::string& path,
                                                GridCellId cell,
                                                size_t dim) {
  if (dim == 0) {
    return Status::InvalidArgument("dimensionality must be >= 1");
  }
  // Stage in <path>.tmp; Close() renames into place. An unclosed (crashed)
  // writer leaves no file at the destination path at all.
  auto out = std::make_shared<std::ofstream>(
      TmpPath(path), std::ios::binary | std::ios::trunc);
  if (!*out) {
    return Status::IOError("cannot open for writing: " + TmpPath(path));
  }

  std::vector<uint8_t> header;
  header.reserve(kHeaderBytes);
  PutU32(&header, kMagic);
  PutU32(&header, kVersion);
  PutU32(&header, static_cast<uint32_t>(dim));
  PutI32(&header, cell.lat_index);
  PutI32(&header, cell.lon_index);
  PutU32(&header, 0);  // pad
  PutU64(&header, 0);  // count, patched on Close()
  out->write(reinterpret_cast<const char*>(header.data()), kHeaderBytes);
  if (!*out) return Status::IOError("short header write: " + path);

  GridBucketWriter writer;
  writer.out_ = std::move(out);
  writer.path_ = path;
  writer.dim_ = dim;
  return writer;
}

Status GridBucketWriter::AppendAll(const Dataset& points) {
  if (points.dim() != dim_) {
    return Status::InvalidArgument("dataset dimensionality mismatch");
  }
  return WriteRows(points.data(), points.size());
}

Status GridBucketWriter::WriteRows(const double* values, size_t rows) {
  if (out_ == nullptr) {
    return Status::FailedPrecondition("writer already closed");
  }
  PMKM_RETURN_NOT_OK(CheckFinite(values, rows, dim_, points_written_, path_));
  const size_t bytes = rows * dim_ * sizeof(double);
  out_->write(reinterpret_cast<const char*>(values),
              static_cast<std::streamsize>(bytes));
  if (!*out_) return Status::IOError("short write: " + path_);
  running_hash_.Update(values, bytes);
  points_written_ += rows;
  return Status::OK();
}

Status GridBucketWriter::Close() {
  if (out_ == nullptr) {
    return Status::FailedPrecondition("writer already closed");
  }
  PMKM_RETURN_NOT_OK(FaultRegistry::Global().Hit("io.write"));
  std::vector<uint8_t> checksum;
  PutU64(&checksum, running_hash_.Digest());
  out_->write(reinterpret_cast<const char*>(checksum.data()),
              static_cast<std::streamsize>(checksum.size()));
  // Back-patch the point count in the header.
  std::vector<uint8_t> count;
  PutU64(&count, points_written_);
  out_->seekp(kCountOffset, std::ios::beg);
  out_->write(reinterpret_cast<const char*>(count.data()),
              static_cast<std::streamsize>(count.size()));
  static_cast<std::ofstream&>(*out_).close();  // Open made an ofstream
  const bool ok = static_cast<bool>(*out_);
  out_.reset();
  if (!ok) return Status::IOError("failed to finalize: " + path_);
  // Atomically publish the finished file.
  PMKM_RETURN_NOT_OK(FsyncPath(TmpPath(path_)));
  return CommitStagedFile(TmpPath(path_), path_);
}

Result<GridBucketReader> GridBucketReader::Open(const std::string& path) {
  PMKM_FAULT_POINT("io.read");
  auto in = std::make_shared<std::ifstream>(path, std::ios::binary);
  if (!*in) return Status::IOError("cannot open for reading: " + path);

  uint8_t header_bytes[kHeaderBytes];
  in->read(reinterpret_cast<char*>(header_bytes), kHeaderBytes);
  if (!*in) return Status::IOError("short header: " + path);
  ByteReader header(header_bytes);
  uint32_t magic = 0, version = 0, dim = 0, pad = 0;
  int32_t lat = 0, lon = 0;
  uint64_t count = 0;
  PMKM_RETURN_NOT_OK(header.ReadU32(&magic));
  PMKM_RETURN_NOT_OK(header.ReadU32(&version));
  PMKM_RETURN_NOT_OK(header.ReadU32(&dim));
  PMKM_RETURN_NOT_OK(header.ReadI32(&lat));
  PMKM_RETURN_NOT_OK(header.ReadI32(&lon));
  PMKM_RETURN_NOT_OK(header.ReadU32(&pad));
  PMKM_RETURN_NOT_OK(header.ReadU64(&count));
  if (magic != kMagic) {
    return Status::IOError("bad magic (not a grid bucket file): " + path);
  }
  if (version != kVersion && version != kFnvVersion) {
    return Status::IOError("unsupported bucket version " +
                           std::to_string(version) + ": " + path);
  }
  if (dim == 0) return Status::IOError("zero dimensionality: " + path);
  if (dim > kMaxBucketDim) {
    return Status::IOError("implausible dimensionality " +
                           std::to_string(dim) +
                           " (corrupt header): " + path);
  }
  GridBucketReader reader;
  reader.in_ = std::move(in);
  reader.path_ = path;
  reader.cell_ = GridCellId{lat, lon};
  reader.version_ = version;
  reader.dim_ = dim;
  reader.total_points_ = count;
  // How many whole points the file can actually hold past the header,
  // independent of what the header claims. Next() bounds its buffer by
  // this, so a corrupt/hostile count never drives an allocation. The
  // division cannot overflow or divide by zero: 0 < dim <= kMaxBucketDim.
  std::error_code size_ec;
  const uint64_t file_size = std::filesystem::file_size(path, size_ec);
  if (!size_ec && file_size >= kHeaderBytes) {
    reader.available_points_ = static_cast<size_t>(
        (file_size - kHeaderBytes) /
        (static_cast<uint64_t>(dim) * sizeof(double)));
  } else {
    // Unsizeable stream (or racing writer): fall back to trusting the
    // header; truncation still surfaces as a short read in Next().
    reader.available_points_ = count;
  }
  return reader;
}

Result<bool> GridBucketReader::Next(size_t max_points, Dataset* out) {
  PMKM_CHECK(out != nullptr);
  if (max_points == 0) {
    return Status::InvalidArgument("max_points must be > 0");
  }
  PMKM_FAULT_POINT("io.read");
  if (points_read_ >= total_points_) {
    // Verify trailer checksum exactly once, on first end-of-stream call.
    if (in_) {
      uint8_t stored[8];
      in_->read(reinterpret_cast<char*>(stored), sizeof(stored));
      if (!*in_) return Status::IOError("missing checksum: " + path_);
      const uint64_t computed =
          version_ == kFnvVersion ? running_fnv_ : running_xxh_.Digest();
      if (LoadU64(stored) != computed) {
        return Status::IOError("checksum mismatch (corrupt bucket): " +
                               path_);
      }
      in_.reset();
    }
    return false;
  }
  const size_t take = std::min(max_points, total_points_ - points_read_);
  if (points_read_ + take > available_points_) {
    // The file cannot hold what the header promised; report the same
    // error a short read would, without sizing a buffer from the header.
    return Status::IOError("truncated bucket payload: " + path_);
  }
  out->Reshape(dim_, take);
  const size_t bytes = take * dim_ * sizeof(double);
  in_->read(reinterpret_cast<char*>(out->mutable_data()),
            static_cast<std::streamsize>(bytes));
  if (!*in_) {
    return Status::IOError("truncated bucket payload: " + path_);
  }
  if (version_ == kFnvVersion) {
    running_fnv_ = internal::Fnv1a64(out->data(), bytes, running_fnv_);
  } else {
    running_xxh_.Update(out->data(), bytes);
  }
  PMKM_RETURN_NOT_OK(CheckFinite(out->data(), take, dim_, points_read_, path_));
  points_read_ += take;
  return true;
}

}  // namespace pmkm
