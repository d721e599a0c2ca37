// Fuzz harness for the model file format (src/cluster/serialize.cc). The
// harness rewrites the FNV-1a trailer of every input before calling
// LoadModel, so mutations reach the parser instead of stopping at the
// checksum. A hostile header must be rejected before it can drive an
// allocation, and an accepted model must be finite and consistent: k > 0
// centroids of dim finite values, k finite non-negative weights, and
// assignments below k.

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "cluster/serialize.h"
#include "data/io.h"
#include "fuzz_io_util.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > (1u << 18)) return 0;  // payload scales with file size anyway
  std::vector<uint8_t> bytes(data, data + size);
  if (bytes.size() >= sizeof(uint64_t)) {
    const size_t body = bytes.size() - sizeof(uint64_t);
    const uint64_t hash = pmkm::internal::Fnv1a64(bytes.data(), body,
                                                  pmkm::internal::kFnvOffset);
    std::memcpy(bytes.data() + body, &hash, sizeof(hash));
  }
  const std::string path =
      pmkm_fuzz::WriteTempInput("pmkm", bytes.data(), bytes.size());

  pmkm::Result<pmkm::ClusteringModel> loaded = pmkm::LoadModel(path);
  if (!loaded.ok()) return 0;
  const pmkm::ClusteringModel& model = loaded.value();
  const size_t k = model.k();
  if (k == 0 || model.dim() == 0) std::abort();
  if (model.centroids.values().size() != k * model.dim()) std::abort();
  if (model.weights.size() != k) std::abort();
  for (double v : model.centroids.values()) {
    if (!std::isfinite(v)) std::abort();
  }
  for (double w : model.weights) {
    if (!std::isfinite(w) || w < 0.0) std::abort();
  }
  for (uint32_t a : model.assignments) {
    if (a >= k) std::abort();
  }
  return 0;
}
