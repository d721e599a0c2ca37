#include "data/io.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>

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

}  // namespace internal

namespace {

constexpr uint32_t kMagic = 0x424b4d50;  // "PMKB" little-endian
constexpr uint32_t kVersion = 1;

// Upper bound on the per-point dimensionality a bucket header may claim.
// Real workloads are low-dimensional (the paper uses <= 64); the bound
// exists so a corrupt/hostile header cannot request absurd allocations.
constexpr uint32_t kMaxBucketDim = 1u << 20;

struct Header {
  uint32_t magic;
  uint32_t version;
  uint32_t dim;
  int32_t lat;
  int32_t lon;
  uint32_t pad;
  uint64_t count;
};
static_assert(sizeof(Header) == 32, "header layout is part of the format");

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

  Header h{};
  h.magic = kMagic;
  h.version = kVersion;
  h.dim = static_cast<uint32_t>(dim);
  h.lat = cell.lat_index;
  h.lon = cell.lon_index;
  h.pad = 0;
  h.count = 0;  // patched on Close()
  out->write(reinterpret_cast<const char*>(&h), sizeof(h));
  if (!*out) return Status::IOError("short header write: " + path);

  GridBucketWriter writer;
  writer.out_ = std::move(out);
  writer.path_ = path;
  writer.dim_ = dim;
  writer.running_hash_ = internal::kFnvOffset;
  return writer;
}

Status GridBucketWriter::Append(std::span<const double> point) {
  if (point.size() != dim_) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  return WriteRows(point.data(), 1);
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
  running_hash_ = internal::Fnv1a64(values, bytes, running_hash_);
  points_written_ += rows;
  return Status::OK();
}

Status GridBucketWriter::Close() {
  if (out_ == nullptr) {
    return Status::FailedPrecondition("writer already closed");
  }
  PMKM_RETURN_NOT_OK(FaultRegistry::Global().Hit("io.write"));
  out_->write(reinterpret_cast<const char*>(&running_hash_),
              sizeof(running_hash_));
  // Back-patch the point count in the header.
  const uint64_t count = points_written_;
  out_->seekp(offsetof(Header, count), std::ios::beg);
  out_->write(reinterpret_cast<const char*>(&count), sizeof(count));
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

  Header h{};
  in->read(reinterpret_cast<char*>(&h), sizeof(h));
  if (!*in) return Status::IOError("short header: " + path);
  if (h.magic != kMagic) {
    return Status::IOError("bad magic (not a grid bucket file): " + path);
  }
  if (h.version != kVersion) {
    return Status::IOError("unsupported bucket version " +
                           std::to_string(h.version) + ": " + path);
  }
  if (h.dim == 0) return Status::IOError("zero dimensionality: " + path);
  if (h.dim > kMaxBucketDim) {
    return Status::IOError("implausible dimensionality " +
                           std::to_string(h.dim) +
                           " (corrupt header): " + path);
  }
  GridBucketReader reader;
  reader.in_ = std::move(in);
  reader.path_ = path;
  reader.cell_ = GridCellId{h.lat, h.lon};
  reader.dim_ = h.dim;
  reader.total_points_ = h.count;
  // How many whole points the file can actually hold past the header,
  // independent of what the header claims. Next() bounds its buffer by
  // this, so a corrupt/hostile count never drives an allocation. The
  // division cannot overflow or divide by zero: 0 < dim <= kMaxBucketDim.
  std::error_code size_ec;
  const uint64_t file_size = std::filesystem::file_size(path, size_ec);
  if (!size_ec && file_size >= sizeof(Header)) {
    reader.available_points_ = static_cast<size_t>(
        (file_size - sizeof(Header)) /
        (static_cast<uint64_t>(h.dim) * sizeof(double)));
  } else {
    // Unsizeable stream (or racing writer): fall back to trusting the
    // header; truncation still surfaces as a short read in Next().
    reader.available_points_ = h.count;
  }
  reader.running_hash_ = internal::kFnvOffset;
  return reader;
}

Result<bool> GridBucketReader::Next(size_t max_points, Dataset* out) {
  PMKM_CHECK(out != nullptr);
  if (max_points == 0) {
    return Status::InvalidArgument("max_points must be > 0");
  }
  PMKM_FAULT_POINT("io.read");
  *out = Dataset(dim_);
  if (points_read_ >= total_points_) {
    // Verify trailer checksum exactly once, on first end-of-stream call.
    if (in_) {
      uint64_t stored = 0;
      in_->read(reinterpret_cast<char*>(&stored), sizeof(stored));
      if (!*in_) return Status::IOError("missing checksum: " + path_);
      if (stored != running_hash_) {
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
  std::vector<double> buf(take * dim_);
  in_->read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(buf.size() * sizeof(double)));
  if (!*in_) {
    return Status::IOError("truncated bucket payload: " + path_);
  }
  running_hash_ = internal::Fnv1a64(
      buf.data(), buf.size() * sizeof(double), running_hash_);
  PMKM_RETURN_NOT_OK(CheckFinite(buf.data(), take, dim_, points_read_, path_));
  points_read_ += take;
  PMKM_ASSIGN_OR_RETURN(*out, Dataset::FromFlat(dim_, std::move(buf)));
  return true;
}

}  // namespace pmkm
