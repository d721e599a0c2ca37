// Fuzz harness for the binary grid-bucket format (src/data/io.cc): both
// the streaming GridBucketReader and the one-shot ReadGridBucket over
// arbitrary bytes. A hostile header must be rejected by Open() before it
// can drive an allocation (dim cap, count-vs-file-size check), and a
// corrupt payload must surface as a Status (checksum / truncation), never
// a crash. Accepted data must be structurally consistent and finite: a
// NaN or ±inf coordinate is rejected, never handed to k-means.

#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "data/io.h"
#include "fuzz_io_util.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > (1u << 18)) return 0;  // payload scales with file size anyway
  const std::string path = pmkm_fuzz::WriteTempInput("pmkb", data, size);

  pmkm::Result<pmkm::GridBucketReader> opened =
      pmkm::GridBucketReader::Open(path);
  if (opened.ok()) {
    pmkm::GridBucketReader& reader = opened.value();
    pmkm::Dataset chunk(reader.dim());
    size_t seen = 0;
    for (;;) {
      pmkm::Result<bool> more = reader.Next(257, &chunk);
      if (!more.ok() || !more.value()) break;
      if (chunk.dim() != reader.dim()) std::abort();
      for (double v : chunk.values()) {
        if (!std::isfinite(v)) std::abort();
      }
      seen += chunk.size();
      if (seen > reader.total_points()) std::abort();  // over-delivery
    }
  }

  // The convenience one-shot path shares the reader but exercises the
  // Reserve/AppendAll assembly on top of it.
  pmkm::Result<pmkm::GridBucket> bucket = pmkm::ReadGridBucket(path);
  if (bucket.ok()) {
    const pmkm::GridBucket& b = bucket.value();
    if (b.points.values().size() != b.points.size() * b.points.dim()) {
      std::abort();
    }
    for (double v : b.points.values()) {
      if (!std::isfinite(v)) std::abort();
    }
  }
  return 0;
}
