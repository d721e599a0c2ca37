// Shared helper for fuzz harnesses whose target API takes a file path
// rather than a byte span (the bucket reader): persist the fuzz
// input to one per-process scratch file and hand back its path. The same
// file is rewritten on every iteration, so fuzzing does not leak temp
// files or inodes.

#ifndef PMKM_FUZZ_FUZZ_IO_UTIL_H_
#define PMKM_FUZZ_FUZZ_IO_UTIL_H_

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

namespace pmkm_fuzz {

/// Writes `size` bytes of `data` to a stable per-process scratch path
/// (distinguished by `tag`) and returns the path. Aborts on I/O failure —
/// a broken scratch file would silently turn the fuzzer into a no-op.
inline std::string WriteTempInput(const char* tag, const uint8_t* data,
                                  size_t size) {
  static const std::string* path = [] {
    auto* p = new std::string();  // intentionally leaked process-lifetime
    *p = (std::filesystem::temp_directory_path() /
          ("pmkm_fuzz_scratch_" + std::to_string(::getpid())))
             .string();
    return p;
  }();
  const std::string file = *path + "." + tag;
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(size));
  out.close();
  if (!out) std::abort();
  return file;
}

}  // namespace pmkm_fuzz

#endif  // PMKM_FUZZ_FUZZ_IO_UTIL_H_
