#include "serve/protocol.h"

#include <algorithm>

#include "common/annotations.h"
#include "common/bytes.h"
#include "data/manifest.h"
#include "stream/checkpoint.h"

namespace pmkm {
namespace serve {

namespace {

// [i32 code][string message], the Status encoding of replies and JobInfo.
Status ReadStatus(ByteReader* reader, Status* out) {
  int32_t code = 0;
  std::string message;
  PMKM_RETURN_NOT_OK(reader->ReadI32(&code));
  PMKM_RETURN_NOT_OK(reader->ReadString(&message));
  if (code < static_cast<int32_t>(StatusCode::kOk) ||
      code > static_cast<int32_t>(StatusCode::kDeadlineExceeded)) {
    return Status::OutOfRange("unknown status code tag " +
                              std::to_string(code));
  }
  *out = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

uint32_t FrameCrc(uint32_t type, std::span<const uint8_t> payload) {
  uint8_t type_le[4];
  StoreU32(type_le, type);
  const uint32_t seed = Crc32c(type_le, sizeof(type_le));
  return Crc32c(payload.data(), payload.size(), seed);
}

}  // namespace

// ---------------------------------------------------------------------------
// Handshake.

std::vector<uint8_t> EncodeHello(uint32_t version) PMKM_DETERMINISTIC {
  std::vector<uint8_t> out;
  out.reserve(kHelloBytes);
  PutU32(&out, kProtocolMagic);
  PutU32(&out, version);
  return out;
}

Result<uint32_t> DecodeHello(std::span<const uint8_t> bytes) {
  if (bytes.size() < kHelloBytes) {
    return Status::OutOfRange("truncated hello: got " +
                              std::to_string(bytes.size()) + " of " +
                              std::to_string(kHelloBytes) + " bytes");
  }
  const uint32_t magic = LoadU32(bytes.data());
  if (magic != kProtocolMagic) {
    return Status::InvalidArgument("bad protocol magic: not a pmkm serve "
                                   "peer");
  }
  return LoadU32(bytes.data() + 4);
}

Result<uint32_t> NegotiateVersion(uint32_t peer_version) {
  const uint32_t effective = std::min(kProtocolVersion, peer_version);
  if (effective < kMinProtocolVersion) {
    return Status::FailedPrecondition(
        "peer protocol version " + std::to_string(peer_version) +
        " is older than the minimum supported version " +
        std::to_string(kMinProtocolVersion));
  }
  return effective;
}

// ---------------------------------------------------------------------------
// Framing.

std::vector<uint8_t> EncodeFrame(
    FrameType type, std::span<const uint8_t> payload) PMKM_DETERMINISTIC {
  std::vector<uint8_t> out;
  out.reserve(kFrameFixedBytes + payload.size());
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  PutU32(&out, static_cast<uint32_t>(type));
  out.insert(out.end(), payload.begin(), payload.end());
  PutU32(&out, FrameCrc(static_cast<uint32_t>(type), payload));
  return out;
}

Result<std::optional<Frame>> DecodeFrame(std::span<const uint8_t> buffer,
                                         size_t* consumed) {
  *consumed = 0;
  if (buffer.size() < 8) return std::optional<Frame>();
  const uint32_t payload_len = LoadU32(buffer.data());
  if (payload_len > kMaxFramePayload) {
    return Status::OutOfRange("frame payload length " +
                              std::to_string(payload_len) +
                              " exceeds the 64 MiB cap");
  }
  const size_t total = kFrameFixedBytes + payload_len;
  if (buffer.size() < total) return std::optional<Frame>();
  const uint32_t type = LoadU32(buffer.data() + 4);
  const std::span<const uint8_t> payload = buffer.subspan(8, payload_len);
  const uint32_t stored_crc = LoadU32(buffer.data() + 8 + payload_len);
  const uint32_t actual_crc = FrameCrc(type, payload);
  if (stored_crc != actual_crc) {
    return Status::IOError("frame CRC mismatch: stream corrupted");
  }
  Frame frame;
  frame.type = type;
  frame.payload.assign(payload.begin(), payload.end());
  *consumed = total;
  return std::optional<Frame>(std::move(frame));
}

// ---------------------------------------------------------------------------
// JobSpec.

std::vector<uint8_t> EncodeJobSpec(const JobSpec& spec) PMKM_DETERMINISTIC {
  std::vector<uint8_t> out;
  PutU32(&out, static_cast<uint32_t>(spec.bucket_paths.size()));
  for (const std::string& path : spec.bucket_paths) {
    PutString(&out, path);
  }
  PutU64(&out, static_cast<uint64_t>(spec.engine.k));
  PutU64(&out, static_cast<uint64_t>(spec.engine.restarts));
  PutU64(&out, static_cast<uint64_t>(spec.engine.memory_kib));
  PutU64(&out, static_cast<uint64_t>(spec.engine.cores));
  PutString(&out, spec.engine.failure_policy);
  PutU64(&out, static_cast<uint64_t>(spec.engine.max_retries));
  PutU64(&out, static_cast<uint64_t>(spec.engine.op_timeout_ms));
  PutString(&out, spec.engine.kernel);
  PutString(&out, spec.engine.checkpoint_dir);
  PutU64(&out, static_cast<uint64_t>(spec.engine.checkpoint_sync));
  PutBool(&out, spec.engine.resume);
  PutString(&out, spec.run_id);
  PutString(&out, spec.client);
  return out;
}

Result<JobSpec> DecodeJobSpec(std::span<const uint8_t> payload) {
  ByteReader reader(payload);
  JobSpec spec;
  uint32_t path_count = 0;
  // Each path costs at least its 4-byte length prefix.
  PMKM_RETURN_NOT_OK(reader.ReadCount(4, &path_count));
  spec.bucket_paths.resize(path_count);
  for (std::string& path : spec.bucket_paths) {
    PMKM_RETURN_NOT_OK(reader.ReadString(&path));
  }
  PMKM_RETURN_NOT_OK(reader.ReadI64(&spec.engine.k));
  PMKM_RETURN_NOT_OK(reader.ReadI64(&spec.engine.restarts));
  PMKM_RETURN_NOT_OK(reader.ReadI64(&spec.engine.memory_kib));
  PMKM_RETURN_NOT_OK(reader.ReadI64(&spec.engine.cores));
  PMKM_RETURN_NOT_OK(reader.ReadString(&spec.engine.failure_policy));
  PMKM_RETURN_NOT_OK(reader.ReadI64(&spec.engine.max_retries));
  PMKM_RETURN_NOT_OK(reader.ReadI64(&spec.engine.op_timeout_ms));
  PMKM_RETURN_NOT_OK(reader.ReadString(&spec.engine.kernel));
  PMKM_RETURN_NOT_OK(reader.ReadString(&spec.engine.checkpoint_dir));
  PMKM_RETURN_NOT_OK(reader.ReadI64(&spec.engine.checkpoint_sync));
  PMKM_RETURN_NOT_OK(reader.ReadBool(&spec.engine.resume));
  PMKM_RETURN_NOT_OK(reader.ReadString(&spec.run_id));
  PMKM_RETURN_NOT_OK(reader.ReadString(&spec.client));
  // Trailing bytes (fields from a newer minor version) are ignored.
  return spec;
}

// ---------------------------------------------------------------------------
// JobInfo.

namespace {

void AppendJobInfo(std::vector<uint8_t>* out, const JobInfo& info) {
  PutU64(out, info.job_id);
  PutU32(out, static_cast<uint32_t>(info.state));
  PutI32(out, static_cast<int32_t>(info.status.code()));
  PutString(out, info.status.message());
  PutString(out, info.client);
  PutString(out, info.run_id);
  PutU64(out, info.cells);
  PutF64(out, info.wall_seconds);
}

Status ReadJobInfo(ByteReader* reader, JobInfo* info) {
  PMKM_RETURN_NOT_OK(reader->ReadU64(&info->job_id));
  uint32_t state = 0;
  PMKM_RETURN_NOT_OK(reader->ReadU32(&state));
  if (state > static_cast<uint32_t>(JobState::kCancelled)) {
    return Status::OutOfRange("unknown job state tag " +
                              std::to_string(state));
  }
  info->state = static_cast<JobState>(state);
  PMKM_RETURN_NOT_OK(ReadStatus(reader, &info->status));
  PMKM_RETURN_NOT_OK(reader->ReadString(&info->client));
  PMKM_RETURN_NOT_OK(reader->ReadString(&info->run_id));
  PMKM_RETURN_NOT_OK(reader->ReadU64(&info->cells));
  PMKM_RETURN_NOT_OK(reader->ReadF64(&info->wall_seconds));
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> EncodeJobInfo(const JobInfo& info) PMKM_DETERMINISTIC {
  std::vector<uint8_t> out;
  AppendJobInfo(&out, info);
  return out;
}

Result<JobInfo> DecodeJobInfo(std::span<const uint8_t> payload) {
  ByteReader reader(payload);
  JobInfo info;
  PMKM_RETURN_NOT_OK(ReadJobInfo(&reader, &info));
  return info;
}

std::vector<uint8_t> EncodeJobList(
    const std::vector<JobInfo>& jobs) PMKM_DETERMINISTIC {
  std::vector<uint8_t> out;
  PutU32(&out, static_cast<uint32_t>(jobs.size()));
  for (const JobInfo& info : jobs) {
    AppendJobInfo(&out, info);
  }
  return out;
}

Result<std::vector<JobInfo>> DecodeJobList(
    std::span<const uint8_t> payload) {
  ByteReader reader(payload);
  uint32_t count = 0;
  // A JobInfo is at least 40 fixed bytes on the wire.
  PMKM_RETURN_NOT_OK(reader.ReadCount(40, &count));
  std::vector<JobInfo> jobs(count);
  for (JobInfo& info : jobs) PMKM_RETURN_NOT_OK(ReadJobInfo(&reader, &info));
  return jobs;
}

// ---------------------------------------------------------------------------
// Model set.

std::vector<uint8_t> EncodeModelSet(
    const std::map<GridCellId, CellClustering>& cells) PMKM_DETERMINISTIC {
  std::vector<uint8_t> out;
  PutU32(&out, static_cast<uint32_t>(cells.size()));
  for (const auto& [cell, clustering] : cells) {
    const std::vector<uint8_t> blob = EncodeCellComplete(clustering);
    PutU32(&out, static_cast<uint32_t>(blob.size()));
    out.insert(out.end(), blob.begin(), blob.end());
  }
  return out;
}

Result<std::map<GridCellId, CellClustering>> DecodeModelSet(
    std::span<const uint8_t> payload) {
  ByteReader reader(payload);
  uint32_t count = 0;
  // Each cell costs at least its 4-byte blob length.
  PMKM_RETURN_NOT_OK(reader.ReadCount(4, &count));
  std::map<GridCellId, CellClustering> cells;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t blob_len = 0;
    PMKM_RETURN_NOT_OK(reader.ReadU32(&blob_len));
    std::span<const uint8_t> blob;
    PMKM_RETURN_NOT_OK(reader.ReadBytes(blob_len, &blob));
    PMKM_ASSIGN_OR_RETURN(CellClustering clustering,
                          DecodeCellComplete(blob));
    const GridCellId cell = clustering.cell;
    cells.emplace(cell, std::move(clustering));
  }
  return cells;
}

// ---------------------------------------------------------------------------
// Await request.

std::vector<uint8_t> EncodeAwaitRequest(
    const AwaitRequest& request) PMKM_DETERMINISTIC {
  std::vector<uint8_t> out;
  PutU64(&out, request.job_id);
  PutU64(&out, request.wait_ms);
  return out;
}

Result<AwaitRequest> DecodeAwaitRequest(std::span<const uint8_t> payload) {
  ByteReader reader(payload);
  AwaitRequest request;
  PMKM_RETURN_NOT_OK(reader.ReadU64(&request.job_id));
  PMKM_RETURN_NOT_OK(reader.ReadU64(&request.wait_ms));
  return request;
}

// ---------------------------------------------------------------------------
// Scalars and replies.

std::vector<uint8_t> EncodeU64(uint64_t value) PMKM_DETERMINISTIC {
  std::vector<uint8_t> out;
  PutU64(&out, value);
  return out;
}

Result<uint64_t> DecodeU64(std::span<const uint8_t> payload) {
  ByteReader reader(payload);
  uint64_t value = 0;
  PMKM_RETURN_NOT_OK(reader.ReadU64(&value));
  return value;
}

std::vector<uint8_t> EncodeReply(
    const Status& status, std::span<const uint8_t> body) PMKM_DETERMINISTIC {
  std::vector<uint8_t> out;
  PutI32(&out, static_cast<int32_t>(status.code()));
  PutString(&out, status.message());
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

Result<Reply> DecodeReply(std::span<const uint8_t> payload) {
  ByteReader reader(payload);
  Reply reply;
  PMKM_RETURN_NOT_OK(ReadStatus(&reader, &reply.status));
  std::span<const uint8_t> body;
  PMKM_RETURN_NOT_OK(reader.ReadBytes(reader.remaining(), &body));
  reply.body.assign(body.begin(), body.end());
  return reply;
}

}  // namespace serve
}  // namespace pmkm
