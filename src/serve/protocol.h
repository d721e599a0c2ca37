// The pmkm serve wire protocol: version-negotiated, CRC-framed binary
// messages over a byte stream (unix-domain or loopback TCP socket).
//
// Handshake — each side sends an 8-byte hello as its first bytes:
//
//   [u32 magic "PMKS"][u32 protocol_version]        (little-endian)
//
// The effective version is min(local, peer); a peer below
// kMinProtocolVersion (or with a bad magic) is rejected and the
// connection closed. This build speaks exactly one version (the floor
// equals the current version), so codecs carry no version branches.
//
// Version history:
//   v1  framing + kPing, kSubmitJob, kJobStatus, kFetchModel, kCancelJob,
//       kListJobs.
//   v2  JobSpec carries run_id and client.
//   v3  kAwaitJob: the server parks the request until the job is terminal
//       (or a bounded slice passes), replacing client-side status polling.
//       v3 JobSpec bytes equal v2's.
//   v4  Model sets carry each cell's .pmkm file bytes (checkpoint cell
//       payload version 2). Every other payload equals v3's.
//   v5  The JobSpec i64 slot after max_retries is deadline_ms (the job's
//       time bound from the start of its run), where it was the stall
//       watchdog's op_timeout_ms, and failure_policy no longer accepts
//       "retry". The bytes are laid out as in v4; v1-v4 peers are
//       rejected at the hello, so no old client's stall timeout is read
//       as a deadline.
//
// Frames — every message after the handshake uses the journal's frame
// discipline (data/manifest.h): length prefix, type tag, and a CRC32C
// trailer so a torn or corrupted stream is detected, never trusted:
//
//   [u32 payload_len][u32 type][payload bytes][u32 crc32c(type || payload)]
//
// payload_len covers the payload only and is capped at kMaxFramePayload;
// a corrupt length can therefore never drive a huge allocation. The
// decoder is incremental and socket-free — feed it a buffer, it returns
// a frame, "need more bytes", or an error — so golden-vector tests and
// the fuzz harness exercise exactly the bytes a socket would deliver.
//
// Requests carry one frame each; every reply is one kReply frame wrapping
// a Status (code + message) plus a request-specific body:
//
//   kPing       empty                        → empty
//   kSubmitJob  JobSpec                      → [u64 job_id]
//   kJobStatus  [u64 job_id]                 → JobInfo
//   kFetchModel [u64 job_id]                 → model set
//   kCancelJob  [u64 job_id]                 → empty
//   kListJobs   empty                        → job list
//   kAwaitJob   [u64 job_id][u64 wait_ms]    → JobInfo, sent when the job
//               is terminal or after min(wait_ms, kMaxAwaitSliceMs) with
//               its then-current (non-terminal) state; wait_ms 0 = the cap
//
// Every payload is written and read with the shared codec in
// common/bytes.h. Model payloads reuse the checkpoint cell codec
// (EncodeCellComplete/DecodeCellComplete), whose model is the .pmkm file
// bytes SaveModel writes (cluster/serialize.h) — the foundation of the
// local/remote byte-identity guarantee — and DecodeModel rejects on the
// wire exactly what LoadModel rejects on disk.
//
// Unknown trailing bytes in a payload are ignored, which is what lets a
// newer minor version append fields.

#ifndef PMKM_SERVE_PROTOCOL_H_
#define PMKM_SERVE_PROTOCOL_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "serve/service.h"

namespace pmkm {
namespace serve {

/// "PMKS" read as a little-endian u32.
inline constexpr uint32_t kProtocolMagic = 0x534b4d50u;

/// Current protocol version (history in the header comment).
inline constexpr uint32_t kProtocolVersion = 5;

/// Oldest version this build still speaks: v5 is the floor, so every
/// peer has kAwaitJob (no client-side polling path exists), reads model
/// sets as .pmkm bytes and sends a deadline, not a stall timeout.
inline constexpr uint32_t kMinProtocolVersion = 5;

/// Longest a server parks one kAwaitJob before answering with the job's
/// current state. A session's handler thread is already dedicated to its
/// connection and the client is blocked on the reply, so a bounded park
/// holds nothing the session does not; the cap bounds how late a
/// stopping daemon notices a parked handler. Clients loop slices up to
/// their own deadline.
inline constexpr uint64_t kMaxAwaitSliceMs = 1000;

/// Frame payload cap, matching the journal's record cap: a corrupt
/// length field must never drive the allocation.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;  // 64 MiB

/// Fixed hello size: magic + version.
inline constexpr size_t kHelloBytes = 8;

/// Frame overhead: payload_len + type + crc.
inline constexpr size_t kFrameFixedBytes = 12;

/// Message type tags. Requests are 1..99, replies 100+.
enum class FrameType : uint32_t {
  kPing = 1,
  kSubmitJob = 2,
  kJobStatus = 3,
  kFetchModel = 4,
  kCancelJob = 5,
  kListJobs = 6,
  kAwaitJob = 7,
  kReply = 100,
};

struct Frame {
  uint32_t type = 0;
  std::vector<uint8_t> payload;
};

/// A decoded kReply frame: the call's Status plus the body the request
/// type defines (empty on failure).
struct Reply {
  Status status;
  std::vector<uint8_t> body;
};

// ---------------------------------------------------------------------------
// Handshake.

/// The 8-byte hello this build sends (magic + `version`).
std::vector<uint8_t> EncodeHello(uint32_t version);

/// Parses a peer hello; fails on short input or a bad magic. Returns the
/// peer's advertised version (unvalidated — pass to NegotiateVersion).
Result<uint32_t> DecodeHello(std::span<const uint8_t> bytes);

/// min(kProtocolVersion, peer_version), or FailedPrecondition when the
/// peer is older than kMinProtocolVersion.
Result<uint32_t> NegotiateVersion(uint32_t peer_version);

// ---------------------------------------------------------------------------
// Framing.

/// Wraps a payload into a wire frame (length, type, payload, CRC).
std::vector<uint8_t> EncodeFrame(FrameType type,
                                 std::span<const uint8_t> payload);

/// Incremental decode: examines the front of `buffer`.
///   - complete valid frame  → the Frame; *consumed = its wire size
///   - prefix of a frame     → nullopt; *consumed = 0 (read more bytes)
///   - oversized length, CRC mismatch → error (connection is poisoned;
///     *consumed = 0)
Result<std::optional<Frame>> DecodeFrame(std::span<const uint8_t> buffer,
                                         size_t* consumed);

// ---------------------------------------------------------------------------
// Payload codecs. All integers little-endian; strings are
// [u32 len][bytes]; doubles are their IEEE-754 bit pattern as u64.

std::vector<uint8_t> EncodeJobSpec(const JobSpec& spec);
Result<JobSpec> DecodeJobSpec(std::span<const uint8_t> payload);

std::vector<uint8_t> EncodeJobInfo(const JobInfo& info);
Result<JobInfo> DecodeJobInfo(std::span<const uint8_t> payload);

std::vector<uint8_t> EncodeJobList(const std::vector<JobInfo>& jobs);
Result<std::vector<JobInfo>> DecodeJobList(std::span<const uint8_t> payload);

/// Model set: [u32 cell_count] then per cell [u32 len][checkpoint cell
/// payload], whose model is the cell's .pmkm file bytes. Bit-exact:
/// every double is restored bitwise.
std::vector<uint8_t> EncodeModelSet(
    const std::map<GridCellId, CellClustering>& cells);
Result<std::map<GridCellId, CellClustering>> DecodeModelSet(
    std::span<const uint8_t> payload);

/// kAwaitJob request: [u64 job_id][u64 wait_ms].
struct AwaitRequest {
  uint64_t job_id = 0;
  uint64_t wait_ms = 0;
};
std::vector<uint8_t> EncodeAwaitRequest(const AwaitRequest& request);
Result<AwaitRequest> DecodeAwaitRequest(std::span<const uint8_t> payload);

/// Bare u64 payload (job ids).
std::vector<uint8_t> EncodeU64(uint64_t value);
Result<uint64_t> DecodeU64(std::span<const uint8_t> payload);

/// Reply envelope: [u32 status_code][u32 msg_len][msg][body...].
std::vector<uint8_t> EncodeReply(const Status& status,
                                 std::span<const uint8_t> body);
Result<Reply> DecodeReply(std::span<const uint8_t> payload);

}  // namespace serve
}  // namespace pmkm

#endif  // PMKM_SERVE_PROTOCOL_H_
