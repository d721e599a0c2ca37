// Publishing files crash-safely: the one write path of the project.
//
// Every file pmkm publishes — model files, CSV exports, observability
// snapshots, traces, profiles — goes through AtomicWriteFile: stage the
// bytes in `<path>.tmp`, fsync it, rename it into place, fsync the parent
// directory. A killed process never leaves a partial file at `path`, and
// a failed write leaves the previous file byte-identical. The streaming
// grid-bucket writer (data/io.h), which cannot hold its file in memory,
// stages on its own and commits through the same FsyncPath +
// CommitStagedFile pair; the journal (data/manifest.h) appends through
// WriteFully. `pmkm_lint`'s persist rule keeps every other file stream,
// write-mode open and rename out of src/.

#ifndef PMKM_COMMON_FILE_H_
#define PMKM_COMMON_FILE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "common/status.h"

namespace pmkm {

/// Writes all of `len` bytes to `fd`, retrying short writes and EINTR.
/// On failure some bytes may have reached the file; `path` only names it
/// in the error.
Status WriteFully(int fd, const uint8_t* data, size_t len,
                  const std::string& path);

/// fsync(2)s the file or directory at `path`. Fault site: "io.fsync".
Status FsyncPath(const std::string& path);

/// Publishes the written and fsync'd staging file `tmp` at `path`:
/// renames it into place, then fsyncs the parent directory so the entry
/// itself survives power loss. The one commit step under AtomicWriteFile
/// and the bucket writers. Fault sites: "io.rename", "io.fsync".
Status CommitStagedFile(const std::string& tmp, const std::string& path);

/// Crash-safe whole-file publication: writes `bytes` to `<path>.tmp`,
/// fsyncs, renames into place, and fsyncs the parent directory. A killed
/// process never leaves a partial file at `path`, and a failure leaves
/// the previous file untouched. Fault sites: "io.write", "io.fsync",
/// "io.rename".
Status AtomicWriteFile(const std::string& path,
                       std::span<const uint8_t> bytes);
Status AtomicWriteFile(const std::string& path, const std::string& bytes);

}  // namespace pmkm

#endif  // PMKM_COMMON_FILE_H_
