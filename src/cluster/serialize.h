// Binary (de)serialization of clustering models.
//
// The compression use case ships models, not points: a clustered grid cell
// is archived/distributed as its k weighted centroids (paper §1-2). The
// format mirrors the grid-bucket container: fixed header, little-endian
// payload (written and read through common/bytes.h), FNV-1a trailer
// checksum. LoadModel applies ValidateModelValues (cluster/model.h).
//
//   [magic "PMKM"] [version u32] [k u64] [dim u64]
//   [flags u32: bit0 = has assignments] [pad u32]
//   [sse f64] [mse_per_point f64] [iterations u64] [converged u32] [pad u32]
//   [k*dim f64 centroids] [k f64 weights] [n u64 + n u32 assignments]?
//   [fnv1a-64 checksum]

#ifndef PMKM_CLUSTER_SERIALIZE_H_
#define PMKM_CLUSTER_SERIALIZE_H_

#include <string>

#include "cluster/model.h"
#include "common/result.h"

namespace pmkm {

/// Writes `model` to `path`, overwriting. Assignments are included only if
/// present in the model.
Status SaveModel(const std::string& path, const ClusteringModel& model);

/// Reads a model written by SaveModel, verifying magic, version and
/// checksum.
Result<ClusteringModel> LoadModel(const std::string& path);

}  // namespace pmkm

#endif  // PMKM_CLUSTER_SERIALIZE_H_
