// ServeDaemon: hosts a LocalService behind the serve wire protocol, on
// the shared ConnectionServer (common/connection_server.h: listener,
// accept loop, io timeout, bounded handler pool, stop). A handler
// performs the hello exchange, then serves request/reply frames until the
// client hangs up. One connection = one session: a peer below the v5
// floor is dropped after the hellos, and a corrupt frame poisons only
// that session. A kAwaitJob parks the session's handler for at most
// kMaxAwaitSliceMs; once Stop() has begun, an await that ends with its
// job still live also ends the session, so a client re-issuing slices
// cannot hold Stop() open.
//
// Graceful drain (the SIGTERM path wired up in tools/pmkm_serve.cc):
// BeginDrain() stops job admission — in-flight and queued jobs keep
// running, and existing *and new* connections still get status/fetch/
// cancel service so clients can collect their results — then
// DrainAndStop() waits for the last accepted job, closes the listener
// and joins everything. An accepted job is never lost to a shutdown.

#ifndef PMKM_SERVE_DAEMON_H_
#define PMKM_SERVE_DAEMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/connection_server.h"
#include "common/status.h"
#include "serve/local_service.h"
#include "serve/protocol.h"

namespace pmkm {
namespace serve {

struct DaemonOptions {
  /// Where to listen: "unix:/path/to.sock" or "127.0.0.1:port"
  /// (port 0 = ephemeral; read the result from bound_endpoint()).
  std::string endpoint = "127.0.0.1:0";

  /// Job execution (workers, admission bounds, budgets, debug server).
  LocalServiceOptions service;

  /// Concurrent client connections served; further connections queue in
  /// the accept backlog.
  size_t num_handler_threads = 4;

  /// Per-socket-op timeout for client connections. Generous because a
  /// client may legitimately idle between requests (e.g. between
  /// submitting and awaiting); 0 disables.
  int io_timeout_ms = 60000;
};

class ServeDaemon : public ConnectionServer {
 public:
  ~ServeDaemon() override;

  /// Starts the service workers, binds the endpoint and starts serving.
  Status Start(const DaemonOptions& options);

  /// Stops job admission; everything else keeps serving. Idempotent.
  void BeginDrain();

  /// Waits for all accepted jobs to finish, then stops. Idempotent with
  /// Stop().
  void DrainAndStop();

  /// Immediate shutdown: closes the listener, joins the handlers, then
  /// shuts the service down. Prefer BeginDrain + DrainAndStop.
  void Stop();

  /// The hosted service (valid after Start), e.g. for tests to submit
  /// in-process or to mount extra introspection.
  LocalService* service() { return service_.get(); }

 private:
  void HandleConnection(int fd) override;
  /// One request frame → one reply frame, dispatched to the service.
  /// Sets *hang_up when the session must end after this reply.
  std::vector<uint8_t> Dispatch(const Frame& request, bool* hang_up);
  /// Answers kAwaitJob: parks on the service for a clamped slice.
  std::vector<uint8_t> AwaitReply(const Frame& request, bool* hang_up);

  std::unique_ptr<LocalService> service_;
};

}  // namespace serve
}  // namespace pmkm

#endif  // PMKM_SERVE_DAEMON_H_
