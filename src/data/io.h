// Binary grid-bucket files.
//
// The paper assumes a preparatory scan has sorted all measurements into
// per-cell binary files ("grid buckets ... saved to disk as binary files",
// §3.1) which are then the streaming input. This module defines that file
// format:
//
//   [magic "PMKB"] [version u32] [dim u32] [lat i32] [lon i32] [count u64]
//   [count * dim  f64 little-endian row-major] [fnv1a-64 checksum u64]
//
// GridBucketReader supports chunked reads so a scan operator can stream a
// bucket without materializing it (one-look constraint).

#ifndef PMKM_DATA_IO_H_
#define PMKM_DATA_IO_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/grid.h"

namespace pmkm {

/// One grid cell's points together with its identity.
struct GridBucket {
  GridCellId cell;
  Dataset points{1};
};

/// Writes a complete bucket file crash-safely: the bytes are staged in a
/// `<path>.tmp` sibling, fsync'd, renamed into place, and the parent
/// directory fsync'd (see data/manifest.h for the commit protocol), so a
/// killed process never leaves a half-written bucket at `path` and a
/// published bucket survives power loss. Non-finite coordinates are
/// refused with InvalidArgument before anything is written.
Status WriteGridBucket(const std::string& path, const GridBucket& bucket);

/// Reads a complete bucket file, verifying magic, version and checksum.
Result<GridBucket> ReadGridBucket(const std::string& path);

/// Writes every bucket of a GridIndex into `dir` as <cell>.pmkb files and
/// returns the written paths in cell order.
Result<std::vector<std::string>> WriteGridBuckets(const std::string& dir,
                                                  const GridIndex& index);

/// Streaming writer: appends points to a bucket file without ever holding
/// the cell in memory (the staging path for TB-scale swaths). The header's
/// count field is back-patched and the checksum appended on Close().
class GridBucketWriter {
 public:
  /// Creates/truncates the `<path>.tmp` staging file and writes a
  /// provisional header; Close() publishes it to `path` via rename.
  static Result<GridBucketWriter> Open(const std::string& path,
                                       GridCellId cell, size_t dim);

  GridBucketWriter(GridBucketWriter&&) = default;
  GridBucketWriter& operator=(GridBucketWriter&&) = default;

  size_t dim() const { return dim_; }
  size_t points_written() const { return points_written_; }

  /// Appends one point (size must equal dim(); every coordinate finite).
  Status Append(std::span<const double> point);

  /// Appends a whole dataset. A non-finite coordinate anywhere in it
  /// fails the call before any of its points are written.
  Status AppendAll(const Dataset& points);

  /// Finalizes the file: patches the count, writes the checksum, and
  /// atomically renames the `<path>.tmp` staging file into place. The
  /// writer is unusable afterwards. An unclosed writer never publishes a
  /// file at the destination path (only the .tmp staging file remains).
  Status Close();

 private:
  GridBucketWriter() = default;

  // Checks, writes and hashes `rows` consecutive points of dim_ doubles.
  Status WriteRows(const double* values, size_t rows);

  std::shared_ptr<std::ofstream> out_;
  std::string path_;
  size_t dim_ = 0;
  size_t points_written_ = 0;
  uint64_t running_hash_ = 0;
};

/// Streaming reader: yields points in file order, `max_points` at a time.
class GridBucketReader {
 public:
  /// Opens the file and parses/validates the header (not the checksum;
  /// checksum verification requires reading the full payload and is done
  /// incrementally as chunks are consumed, reported by the final Next()).
  static Result<GridBucketReader> Open(const std::string& path);

  GridCellId cell() const { return cell_; }
  size_t dim() const { return dim_; }
  size_t total_points() const { return total_points_; }
  size_t points_read() const { return points_read_; }

  /// Points the file can physically hold given its size — an upper bound
  /// on what Next() will ever deliver. Preallocate with
  /// min(total_points(), available_points()): the header's count is
  /// untrusted input and must not size an allocation on its own.
  size_t available_points() const { return available_points_; }

  /// Reads up to `max_points` further points into `*out` (replacing its
  /// contents). Returns true if points were produced, false at end of
  /// stream. Corruption (short file, checksum mismatch) yields an IOError;
  /// a NaN or ±inf coordinate yields InvalidArgument naming the path,
  /// point and column (never retried, so a tolerant scan quarantines it).
  Result<bool> Next(size_t max_points, Dataset* out);

 private:
  GridBucketReader() = default;

  std::shared_ptr<std::ifstream> in_;  // shared: Reader is movable/copyable
  std::string path_;
  GridCellId cell_;
  size_t dim_ = 0;
  size_t total_points_ = 0;
  size_t points_read_ = 0;
  /// Points the file can physically hold (from its size), used to bound
  /// Next()'s buffer so a corrupt header cannot drive an allocation.
  size_t available_points_ = 0;
  uint64_t running_hash_ = 0;
};

namespace internal {
/// FNV-1a 64-bit over a byte buffer, chainable via `seed`.
uint64_t Fnv1a64(const void* data, size_t len, uint64_t seed);
/// FNV-1a initial offset basis.
inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
}  // namespace internal

}  // namespace pmkm

#endif  // PMKM_DATA_IO_H_
