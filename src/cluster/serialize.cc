#include "cluster/serialize.h"

#include <fstream>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/bytes.h"
#include "data/io.h"
#include "data/manifest.h"

namespace pmkm {
namespace {

constexpr uint32_t kModelMagic = 0x4d4b4d50;  // "PMKM"
constexpr uint32_t kModelVersion = 1;
constexpr uint32_t kFlagHasAssignments = 1u << 0;

// Parses the FNV-checked body of a model file into `model`.
Status ReadModel(ByteReader* reader, ClusteringModel* model) {
  uint32_t magic = 0, version = 0, flags = 0, pad = 0;
  uint64_t k = 0, dim = 0;
  PMKM_RETURN_NOT_OK(reader->ReadU32(&magic));
  if (magic != kModelMagic) {
    return Status::IOError("bad magic (not a model file)");
  }
  PMKM_RETURN_NOT_OK(reader->ReadU32(&version));
  if (version != kModelVersion) {
    return Status::IOError("unsupported model version");
  }
  PMKM_RETURN_NOT_OK(reader->ReadU64(&k));
  PMKM_RETURN_NOT_OK(reader->ReadU64(&dim));
  PMKM_RETURN_NOT_OK(reader->ReadU32(&flags));
  PMKM_RETURN_NOT_OK(reader->ReadU32(&pad));

  uint64_t iterations = 0;
  uint32_t converged = 0;
  PMKM_RETURN_NOT_OK(reader->ReadF64(&model->sse));
  PMKM_RETURN_NOT_OK(reader->ReadF64(&model->mse_per_point));
  PMKM_RETURN_NOT_OK(reader->ReadU64(&iterations));
  PMKM_RETURN_NOT_OK(reader->ReadU32(&converged));
  PMKM_RETURN_NOT_OK(reader->ReadU32(&pad));
  model->iterations = iterations;
  model->converged = converged != 0;

  // Bound the header's sizes by the bytes that are actually there before
  // allocating anything: k centroids of dim values plus k weights is
  // k·(dim + 1) doubles, checked without overflow.
  const uint64_t doubles_left = reader->remaining() / sizeof(double);
  if (dim >= doubles_left || k > doubles_left / (dim + 1)) {
    return Status::IOError("model header (k=" + std::to_string(k) +
                           ", dim=" + std::to_string(dim) +
                           ") exceeds its payload");
  }
  std::vector<double> centroid_values(k * dim);
  for (double& v : centroid_values) PMKM_RETURN_NOT_OK(reader->ReadF64(&v));
  PMKM_ASSIGN_OR_RETURN(model->centroids,
                        Dataset::FromFlat(dim, std::move(centroid_values)));
  model->weights.resize(k);
  for (double& w : model->weights) PMKM_RETURN_NOT_OK(reader->ReadF64(&w));
  PMKM_RETURN_NOT_OK(ValidateModelValues(*model));
  if (flags & kFlagHasAssignments) {
    uint64_t n = 0;
    PMKM_RETURN_NOT_OK(reader->ReadU64(&n));
    if (n > reader->remaining() / sizeof(uint32_t)) {
      return Status::IOError("model header claims " + std::to_string(n) +
                             " assignments, more than its payload holds");
    }
    model->assignments.resize(n);
    for (size_t i = 0; i < n; ++i) {
      PMKM_RETURN_NOT_OK(reader->ReadU32(&model->assignments[i]));
      if (model->assignments[i] >= k) {
        return Status::IOError("assignment of point " + std::to_string(i) +
                               " is not below k=" + std::to_string(k));
      }
    }
  }
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
  std::vector<uint8_t> buf;
  PutU32(&buf, kModelMagic);
  PutU32(&buf, kModelVersion);
  PutU64(&buf, model.k());
  PutU64(&buf, model.dim());
  const uint32_t flags =
      model.assignments.empty() ? 0u : kFlagHasAssignments;
  PutU32(&buf, flags);
  PutU32(&buf, 0);
  PutF64(&buf, model.sse);
  PutF64(&buf, model.mse_per_point);
  PutU64(&buf, model.iterations);
  PutU32(&buf, model.converged ? 1 : 0);
  PutU32(&buf, 0);
  for (double v : model.centroids.values()) PutF64(&buf, v);
  for (double w : model.weights) PutF64(&buf, w);
  if (flags & kFlagHasAssignments) {
    PutU64(&buf, model.assignments.size());
    for (uint32_t a : model.assignments) PutU32(&buf, a);
  }
  PutU64(&buf,
         internal::Fnv1a64(buf.data(), buf.size(), internal::kFnvOffset));

  // Durable atomic publish (stage + fsync + rename + dir fsync): a model
  // file either exists completely or not at all, even across power loss —
  // the kill-sweep harness compares these files bytewise across crashes.
  return AtomicWriteFile(path, buf);
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
  std::vector<uint8_t> buf(static_cast<size_t>(size));
  in.read(reinterpret_cast<char*>(buf.data()), size);
  if (!in) return Status::IOError("short read: " + path);
  const size_t body = buf.size() - sizeof(uint64_t);
  if (LoadU64(buf.data() + body) !=
      internal::Fnv1a64(buf.data(), body, internal::kFnvOffset)) {
    return Status::IOError("checksum mismatch (corrupt model): " + path);
  }

  ByteReader reader(std::span<const uint8_t>(buf.data(), body));
  ClusteringModel model;
  if (const Status st = ReadModel(&reader, &model); !st.ok()) {
    return Status::IOError(st.message() + ": " + path);
  }
  return model;
}

}  // namespace pmkm
