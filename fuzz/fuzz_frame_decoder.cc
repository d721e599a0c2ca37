// Fuzz harness for the serve wire-protocol frame decoder
// (src/serve/protocol.cc). The decoder fronts a network socket, so it
// must treat every byte as hostile: a corrupt length can never drive a
// huge allocation (kMaxFramePayload cap), a CRC mismatch must surface as
// a Status, and "need more bytes" must be a stable fixed point (consumed
// == 0, no partial state). Frames that do decode are re-encoded and the
// payload codecs are driven over the decoded payload — the decoded frame
// must round-trip to exactly the bytes consumed.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <span>
#include <vector>

#include "serve/protocol.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > (1u << 18)) return 0;
  const std::span<const uint8_t> input(data, size);

  // The hello decoder shares the buffer discipline; cheap to cover here.
  (void)pmkm::serve::DecodeHello(input);

  size_t consumed = ~size_t{0};
  pmkm::Result<std::optional<pmkm::serve::Frame>> frame =
      pmkm::serve::DecodeFrame(input, &consumed);
  if (!frame.ok()) {
    return 0;  // poisoned stream: rejected without crashing is the goal
  }
  if (!frame.value().has_value()) {
    // "Need more bytes" must not claim progress.
    if (consumed != 0) std::abort();
    return 0;
  }

  // A decoded frame must re-encode to exactly the bytes it was decoded
  // from: encode and decode are inverses on the wire.
  const pmkm::serve::Frame& f = *frame.value();
  if (consumed > size) std::abort();
  const std::vector<uint8_t> reencoded = pmkm::serve::EncodeFrame(
      static_cast<pmkm::serve::FrameType>(f.type), f.payload);
  if (reencoded.size() != consumed) std::abort();
  if (std::memcmp(reencoded.data(), data, consumed) != 0) std::abort();

  // Drive every payload codec over the (CRC-clean but otherwise
  // arbitrary) payload; each must reject or accept without crashing.
  (void)pmkm::serve::DecodeJobSpec(f.payload);
  (void)pmkm::serve::DecodeAwaitRequest(f.payload);
  (void)pmkm::serve::DecodeJobInfo(f.payload);
  (void)pmkm::serve::DecodeJobList(f.payload);
  (void)pmkm::serve::DecodeModelSet(f.payload);
  (void)pmkm::serve::DecodeU64(f.payload);
  (void)pmkm::serve::DecodeReply(f.payload);
  return 0;
}
