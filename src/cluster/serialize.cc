#include "cluster/serialize.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "data/io.h"
#include "data/manifest.h"

namespace pmkm {
namespace {

constexpr uint32_t kModelMagic = 0x4d4b4d50;  // "PMKM"
constexpr uint32_t kModelVersion = 1;
constexpr uint32_t kFlagHasAssignments = 1u << 0;

// Appends raw bytes of `value` to `out`.
template <typename T>
void PutPod(std::vector<char>* out, const T& value) {
  const char* p = reinterpret_cast<const char*>(&value);
  out->insert(out->end(), p, p + sizeof(T));
}

template <typename T>
Status GetPod(std::ifstream* in, T* value) {
  in->read(reinterpret_cast<char*>(value), sizeof(T));
  if (!*in) return Status::IOError("truncated model file");
  return Status::OK();
}

}  // namespace

Status SaveModel(const std::string& path,
                 const ClusteringModel& model) PMKM_DETERMINISTIC {
  if (model.k() == 0) {
    return Status::InvalidArgument("cannot save an empty model");
  }
  if (model.weights.size() != model.k()) {
    return Status::InvalidArgument("model weights/centroids mismatch");
  }
  std::vector<char> buf;
  PutPod(&buf, kModelMagic);
  PutPod(&buf, kModelVersion);
  PutPod(&buf, static_cast<uint64_t>(model.k()));
  PutPod(&buf, static_cast<uint64_t>(model.dim()));
  const uint32_t flags =
      model.assignments.empty() ? 0u : kFlagHasAssignments;
  PutPod(&buf, flags);
  PutPod(&buf, uint32_t{0});
  PutPod(&buf, model.sse);
  PutPod(&buf, model.mse_per_point);
  PutPod(&buf, static_cast<uint64_t>(model.iterations));
  PutPod(&buf, static_cast<uint32_t>(model.converged ? 1 : 0));
  PutPod(&buf, uint32_t{0});
  for (double v : model.centroids.values()) PutPod(&buf, v);
  for (double w : model.weights) PutPod(&buf, w);
  if (flags & kFlagHasAssignments) {
    PutPod(&buf, static_cast<uint64_t>(model.assignments.size()));
    for (uint32_t a : model.assignments) PutPod(&buf, a);
  }
  const uint64_t hash =
      internal::Fnv1a64(buf.data(), buf.size(), internal::kFnvOffset);
  const char* hp = reinterpret_cast<const char*>(&hash);
  buf.insert(buf.end(), hp, hp + sizeof(hash));

  // Durable atomic publish (stage + fsync + rename + dir fsync): a model
  // file either exists completely or not at all, even across power loss —
  // the kill-sweep harness compares these files bytewise across crashes.
  return AtomicWriteFile(
      path, std::span<const uint8_t>(
                reinterpret_cast<const uint8_t*>(buf.data()), buf.size()));
}

Result<ClusteringModel> LoadModel(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for reading: " + path);

  // Read everything, verify the trailer checksum first.
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  if (size < static_cast<std::streamoff>(sizeof(uint64_t) + 8)) {
    return Status::IOError("file too small to be a model: " + path);
  }
  std::vector<char> buf(static_cast<size_t>(size));
  in.read(buf.data(), size);
  if (!in) return Status::IOError("short read: " + path);
  uint64_t stored;
  std::memcpy(&stored, buf.data() + buf.size() - sizeof(uint64_t),
              sizeof(uint64_t));
  const uint64_t computed = internal::Fnv1a64(
      buf.data(), buf.size() - sizeof(uint64_t), internal::kFnvOffset);
  if (stored != computed) {
    return Status::IOError("checksum mismatch (corrupt model): " + path);
  }

  size_t pos = 0;
  auto take = [&](auto* value) -> Status {
    using T = std::remove_pointer_t<decltype(value)>;
    if (pos + sizeof(T) > buf.size() - sizeof(uint64_t)) {
      return Status::IOError("truncated model payload: " + path);
    }
    std::memcpy(value, buf.data() + pos, sizeof(T));
    pos += sizeof(T);
    return Status::OK();
  };

  uint32_t magic = 0, version = 0, flags = 0, pad = 0;
  uint64_t k = 0, dim = 0;
  PMKM_RETURN_NOT_OK(take(&magic));
  if (magic != kModelMagic) {
    return Status::IOError("bad magic (not a model file): " + path);
  }
  PMKM_RETURN_NOT_OK(take(&version));
  if (version != kModelVersion) {
    return Status::IOError("unsupported model version: " + path);
  }
  PMKM_RETURN_NOT_OK(take(&k));
  PMKM_RETURN_NOT_OK(take(&dim));
  if (k == 0 || dim == 0) {
    return Status::IOError("degenerate model shape: " + path);
  }
  PMKM_RETURN_NOT_OK(take(&flags));
  PMKM_RETURN_NOT_OK(take(&pad));

  ClusteringModel model;
  uint64_t iterations = 0;
  uint32_t converged = 0;
  PMKM_RETURN_NOT_OK(take(&model.sse));
  PMKM_RETURN_NOT_OK(take(&model.mse_per_point));
  PMKM_RETURN_NOT_OK(take(&iterations));
  PMKM_RETURN_NOT_OK(take(&converged));
  PMKM_RETURN_NOT_OK(take(&pad));
  model.iterations = iterations;
  model.converged = converged != 0;

  // Bound the header's sizes by the bytes that are actually there before
  // allocating anything: k centroids of dim values plus k weights is
  // k·(dim + 1) doubles, checked without overflow.
  const size_t payload_end = buf.size() - sizeof(uint64_t);
  const uint64_t doubles_left = (payload_end - pos) / sizeof(double);
  if (dim >= doubles_left || k > doubles_left / (dim + 1)) {
    return Status::IOError("model header (k=" + std::to_string(k) +
                           ", dim=" + std::to_string(dim) +
                           ") exceeds its payload: " + path);
  }
  std::vector<double> centroid_values(k * dim);
  for (size_t v = 0; v < centroid_values.size(); ++v) {
    PMKM_RETURN_NOT_OK(take(&centroid_values[v]));
    if (!std::isfinite(centroid_values[v])) {
      return Status::IOError("non-finite value in centroid " +
                             std::to_string(v / dim) + ": " + path);
    }
  }
  PMKM_ASSIGN_OR_RETURN(model.centroids,
                        Dataset::FromFlat(dim, std::move(centroid_values)));
  model.weights.resize(k);
  for (size_t j = 0; j < k; ++j) {
    double& w = model.weights[j];
    PMKM_RETURN_NOT_OK(take(&w));
    if (!std::isfinite(w) || w < 0.0) {
      return Status::IOError("weight of centroid " + std::to_string(j) +
                             " must be finite and >= 0: " + path);
    }
  }
  if (flags & kFlagHasAssignments) {
    uint64_t n = 0;
    PMKM_RETURN_NOT_OK(take(&n));
    if (n > (payload_end - pos) / sizeof(uint32_t)) {
      return Status::IOError("model header claims " + std::to_string(n) +
                             " assignments, more than its payload holds: " +
                             path);
    }
    model.assignments.resize(n);
    for (size_t i = 0; i < n; ++i) {
      PMKM_RETURN_NOT_OK(take(&model.assignments[i]));
      if (model.assignments[i] >= k) {
        return Status::IOError("assignment of point " + std::to_string(i) +
                               " is not below k=" + std::to_string(k) +
                               ": " + path);
      }
    }
  }
  return model;
}

}  // namespace pmkm
