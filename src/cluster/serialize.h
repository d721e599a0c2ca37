// Binary (de)serialization of clustering models: the one model codec.
//
// The compression use case ships models, not points: a clustered grid cell
// is archived/distributed as its k weighted centroids (paper §1-2). The
// format mirrors the grid-bucket container: fixed header, little-endian
// payload (written and read through common/bytes.h), FNV-1a trailer
// checksum. Every copy of a model carries exactly these bytes: the .pmkm
// file, the checkpoint journal's kCellComplete record
// (stream/checkpoint.h) and the serve wire's model set
// (serve/protocol.h), so DecodeModel is the only model decoder.
//
//   [magic "PMKM"] [version u32] [k u64] [dim u64] [flags u32 = 0] [pad u32]
//   [sse f64] [mse_per_point f64] [iterations u64] [converged u32] [pad u32]
//   [k*dim f64 centroids] [k f64 weights]
//   [fnv1a-64 checksum]
//
// The flags word is always 0. Bit 0 once announced a per-point assignment
// section after the weights; no shipped binary ever wrote one, and a
// decoder now rejects any set bit.

#ifndef PMKM_CLUSTER_SERIALIZE_H_
#define PMKM_CLUSTER_SERIALIZE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cluster/model.h"
#include "common/result.h"

namespace pmkm {

/// The model's bytes in the layout above, checksum trailer included.
/// The encoder is faithful: a model with no centroids or a NaN weight is
/// encoded as is, and DecodeModel rejects it.
std::vector<uint8_t> EncodeModel(const ClusteringModel& model);

/// Parses bytes written by EncodeModel: checks the trailer, then the
/// header and payload (sizes are bounded by the bytes present before
/// anything is allocated) and a flags word of 0, then the values — at
/// least one centroid, one weight per centroid, finite coordinates,
/// weights finite and >= 0. Any failure is IOError.
Result<ClusteringModel> DecodeModel(std::span<const uint8_t> bytes);

/// Publishes EncodeModel(model) at `path` atomically, overwriting.
/// InvalidArgument, and nothing written, for a model whose values
/// DecodeModel would reject: no centroids, a weight count other than k, a
/// non-finite coordinate, or a weight that is not finite and >= 0.
Status SaveModel(const std::string& path, const ClusteringModel& model);

/// DecodeModel over the file at `path`; error messages name the path.
Result<ClusteringModel> LoadModel(const std::string& path);

}  // namespace pmkm

#endif  // PMKM_CLUSTER_SERIALIZE_H_
