#include "cluster/serialize.h"

#include <cmath>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/bytes.h"
#include "common/file.h"
#include "data/io.h"

namespace pmkm {
namespace {

constexpr uint32_t kModelMagic = 0x4d4b4d50;  // "PMKM"
constexpr uint32_t kModelVersion = 1;

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
  if (flags != 0) {  // no flag bit is defined (serialize.h)
    return Status::IOError("model flags " + std::to_string(flags) +
                           " are not 0");
  }
  std::vector<double> centroid_values(k * dim);
  for (double& v : centroid_values) PMKM_RETURN_NOT_OK(reader->ReadF64(&v));
  PMKM_ASSIGN_OR_RETURN(model->centroids,
                        Dataset::FromFlat(dim, std::move(centroid_values)));
  model->weights.resize(k);
  for (double& w : model->weights) PMKM_RETURN_NOT_OK(reader->ReadF64(&w));
  return Status::OK();
}

// At least one centroid, one weight per centroid, finite centroid
// coordinates, and weights that are finite and >= 0. InvalidArgument
// names the first offending centroid.
Status ValidateModelValues(const ClusteringModel& model) {
  if (model.k() == 0) return Status::InvalidArgument("model has no centroids");
  if (model.weights.size() != model.k()) {
    return Status::InvalidArgument(
        "model has " + std::to_string(model.weights.size()) +
        " weights for " + std::to_string(model.k()) + " centroids");
  }
  const std::vector<double>& values = model.centroids.values();
  for (size_t v = 0; v < values.size(); ++v) {
    if (!std::isfinite(values[v])) {
      return Status::InvalidArgument("non-finite value in centroid " +
                                     std::to_string(v / model.dim()));
    }
  }
  for (size_t j = 0; j < model.k(); ++j) {
    const double w = model.weights[j];
    if (!std::isfinite(w) || w < 0.0) {
      return Status::InvalidArgument("weight of centroid " +
                                     std::to_string(j) +
                                     " must be finite and >= 0");
    }
  }
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> EncodeModel(
    const ClusteringModel& model) PMKM_DETERMINISTIC {
  std::vector<uint8_t> buf;
  PutU32(&buf, kModelMagic);
  PutU32(&buf, kModelVersion);
  PutU64(&buf, model.k());
  PutU64(&buf, model.dim());
  PutU32(&buf, 0);  // flags
  PutU32(&buf, 0);
  PutF64(&buf, model.sse);
  PutF64(&buf, model.mse_per_point);
  PutU64(&buf, model.iterations);
  PutU32(&buf, model.converged ? 1 : 0);
  PutU32(&buf, 0);
  for (double v : model.centroids.values()) PutF64(&buf, v);
  for (double w : model.weights) PutF64(&buf, w);
  PutU64(&buf,
         internal::Fnv1a64(buf.data(), buf.size(), internal::kFnvOffset));
  return buf;
}

Result<ClusteringModel> DecodeModel(std::span<const uint8_t> bytes) {
  // Verify the trailer checksum first.
  if (bytes.size() < sizeof(uint64_t) + 8) {
    return Status::IOError("too small to be a model");
  }
  const size_t body = bytes.size() - sizeof(uint64_t);
  if (LoadU64(bytes.data() + body) !=
      internal::Fnv1a64(bytes.data(), body, internal::kFnvOffset)) {
    return Status::IOError("checksum mismatch (corrupt model)");
  }
  ByteReader reader(bytes.first(body));
  ClusteringModel model;
  Status st = ReadModel(&reader, &model);
  if (st.ok()) st = ValidateModelValues(model);
  if (!st.ok()) return Status::IOError(st.message());
  return model;
}

Status SaveModel(const std::string& path, const ClusteringModel& model) {
  // Never publish a file LoadModel would refuse.
  PMKM_RETURN_NOT_OK(ValidateModelValues(model));
  // Durable atomic publish (stage + fsync + rename + dir fsync): a model
  // file either exists completely or not at all, even across power loss —
  // the kill-sweep harness compares these files bytewise across crashes.
  return AtomicWriteFile(path, EncodeModel(model));
}

Result<ClusteringModel> LoadModel(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IOError("short read: " + path);
  Result<ClusteringModel> model = DecodeModel(bytes);
  if (!model.ok()) {
    return Status::IOError(model.status().message() + ": " + path);
  }
  return model;
}

}  // namespace pmkm
