// Thin POSIX socket helpers under ConnectionServer (listen/accept, the
// debug server and the serve daemon) and RemoteService (dial). Endpoints
// are strings:
//
//   unix:/path/to.sock     unix-domain socket
//   127.0.0.1:7070         loopback TCP (host must be an IPv4 literal)
//   127.0.0.1:0            loopback TCP on an ephemeral port
//
// Every listener here is a local/loopback surface, not a public one: TCP
// endpoints refuse to bind non-loopback addresses. On platforms without
// POSIX sockets every function returns NotImplemented.

#ifndef PMKM_COMMON_NET_H_
#define PMKM_COMMON_NET_H_

#include <cstdint>
#include <span>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace pmkm {

/// A listening socket plus where it actually bound (the ephemeral port
/// resolved, the unix path echoed back).
struct Listener {
  int fd = -1;
  /// Re-dialable endpoint string ("127.0.0.1:43117" / "unix:/tmp/x.sock").
  std::string endpoint;
};

/// Parses, binds and listens on `endpoint`. For unix endpoints a stale
/// socket file from a dead process is removed before binding.
Result<Listener> ListenEndpoint(const std::string& endpoint);

/// Connects to `endpoint`; returns the connected fd.
Result<int> DialEndpoint(const std::string& endpoint);

/// Blocking accept. Distinguishes a closed listener (Cancelled) from any
/// other failure (Internal, e.g. EMFILE) so the accept loop knows when to
/// exit and when to back off.
Result<int> AcceptConnection(int listen_fd);

/// Bounds every read/write on `fd` (slow-loris guard); 0 disables.
Status SetIoTimeout(int fd, int timeout_ms);

/// Writes the whole buffer or fails (IOError on timeout/reset).
Status WriteAll(int fd, std::span<const uint8_t> bytes);

/// Reads exactly `out.size()` bytes. A clean EOF before the first byte is
/// Cancelled ("peer closed"); EOF mid-buffer or a socket error is
/// IOError.
Status ReadExact(int fd, std::span<uint8_t> out);

/// Reads up to out.size() bytes; returns the count (0 = clean EOF).
Result<size_t> ReadSome(int fd, std::span<uint8_t> out);

/// shutdown()+close(): unblocks a thread parked in AcceptConnection or
/// ReadExact on this fd, then releases it. Safe on -1.
void CloseFd(int fd);

/// Removes the socket file of a unix endpoint (no-op for TCP); called by
/// ConnectionServer::Stop so restarts find a clean path.
void CleanupEndpoint(const std::string& endpoint);

}  // namespace pmkm

#endif  // PMKM_COMMON_NET_H_
