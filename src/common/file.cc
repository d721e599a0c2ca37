#include "common/file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/fault.h"

namespace pmkm {

namespace {

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + ": " + path + " (" + std::strerror(errno) + ")";
}

}  // namespace

Status WriteFully(int fd, const uint8_t* data, size_t len,
                  const std::string& path) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(ErrnoMessage("write failed", path));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
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

Status CommitStagedFile(const std::string& tmp, const std::string& path) {
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
  return CommitStagedFile(tmp, path);
}

Status AtomicWriteFile(const std::string& path, const std::string& bytes) {
  return AtomicWriteFile(
      path, std::span<const uint8_t>(
                reinterpret_cast<const uint8_t*>(bytes.data()),
                bytes.size()));
}

}  // namespace pmkm
