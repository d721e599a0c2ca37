// RemoteService: ClusterService client over the serve wire protocol
// (serve/protocol.h) to a pmkm_serve daemon on a unix-domain or loopback
// TCP socket.
//
// Connect() dials, exchanges hellos and fixes the effective protocol
// version; after that every API call is one request frame and one kReply
// frame on the shared connection. The protocol is strictly request/reply,
// so exchanges are serialized — but by a busy token handed off under mu_,
// not by holding mu_ across the socket I/O: the wire round trip runs with
// no lock held (pmkm_ctxcheck: no-block-under-lock), so a slow server
// stalls only concurrent callers, never connected()/negotiated_version()
// state queries. A Status carried in a reply is
// surfaced as that call's Status, so remote error semantics match
// LocalService exactly; transport failures surface as IOError and poison
// the connection (every later call fails fast until a new Connect()).

#ifndef PMKM_SERVE_REMOTE_SERVICE_H_
#define PMKM_SERVE_REMOTE_SERVICE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "serve/protocol.h"
#include "serve/service.h"

namespace pmkm {
namespace serve {

class RemoteService : public ClusterService {
 public:
  RemoteService() = default;
  ~RemoteService() override;

  RemoteService(const RemoteService&) = delete;
  RemoteService& operator=(const RemoteService&) = delete;

  /// Dials `endpoint` ("unix:/path" or "127.0.0.1:port") and performs the
  /// handshake. Fails on a bad magic or an unsupported peer version.
  Status Connect(const std::string& endpoint) PMKM_EXCLUDES(mu_);

  /// Closes the connection; idempotent.
  void Disconnect() PMKM_EXCLUDES(mu_);

  bool connected() const PMKM_EXCLUDES(mu_);

  /// Version agreed with the server (valid after Connect).
  uint32_t negotiated_version() const PMKM_EXCLUDES(mu_);

  /// Liveness probe: one kPing round trip.
  Status Ping() PMKM_EXCLUDES(mu_);

  Result<uint64_t> SubmitJob(const JobSpec& spec) override
      PMKM_EXCLUDES(mu_);
  Result<JobInfo> JobStatus(uint64_t job_id) override PMKM_EXCLUDES(mu_);
  Result<std::map<GridCellId, CellClustering>> FetchModel(
      uint64_t job_id) override PMKM_EXCLUDES(mu_);
  Status CancelJob(uint64_t job_id) override PMKM_EXCLUDES(mu_);
  Result<std::vector<JobInfo>> ListJobs() override PMKM_EXCLUDES(mu_);

  /// kAwaitJob slices until the job is terminal or `timeout_ms` passes.
  /// Each slice holds this connection's session for up to
  /// kMaxAwaitSliceMs, so cancel a parked job from a second connection.
  Result<JobInfo> AwaitJob(uint64_t job_id, uint64_t timeout_ms) override
      PMKM_EXCLUDES(mu_);

 private:
  /// One request/reply round trip. Returns the decoded reply; the carried
  /// Status is NOT yet applied (callers decide whether a non-OK status
  /// still has a meaningful body). Reserves the session (busy_), performs
  /// the socket I/O with mu_ released, then publishes the outcome.
  Result<Reply> Call(FrameType type, std::vector<uint8_t> payload)
      PMKM_EXCLUDES(mu_);

  mutable Mutex mu_;
  CondVar io_done_;
  /// Session reservation: the thread that set busy_ owns fd_ and the
  /// stream until it clears it (with mu_ released in between — socket
  /// I/O must never run under mu_). Connect/Call/Disconnect all wait on
  /// io_done_ for the reservation, so fd_ is never closed or replaced
  /// under an in-flight exchange.
  bool busy_ PMKM_GUARDED_BY(mu_) = false;
  int fd_ PMKM_GUARDED_BY(mu_) = -1;
  uint32_t version_ PMKM_GUARDED_BY(mu_) = 0;
  /// Unconsumed bytes read past the previous frame boundary.
  std::vector<uint8_t> read_buffer_ PMKM_GUARDED_BY(mu_);
};

}  // namespace serve
}  // namespace pmkm

#endif  // PMKM_SERVE_REMOTE_SERVICE_H_
