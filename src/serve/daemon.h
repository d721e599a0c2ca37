// ServeDaemon: hosts a LocalService behind the serve wire protocol. The
// accept loop hands each connection to a bounded handler pool; a handler
// performs the hello exchange, then serves request/reply frames until the
// client hangs up. One connection = one session: a peer below the v3
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
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/status.h"
#include "serve/local_service.h"
#include "serve/net.h"
#include "serve/protocol.h"

namespace pmkm {

class ThreadPool;

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

class ServeDaemon {
 public:
  /// Out of line: members hold a unique_ptr to the forward-declared
  /// ThreadPool, so construction/destruction needs the complete type.
  ServeDaemon();
  ~ServeDaemon();

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Binds the endpoint, starts the service workers, the handler pool
  /// and the accept thread.
  Status Start(const DaemonOptions& options) PMKM_EXCLUDES(mu_);

  /// Stops job admission; everything else keeps serving. Idempotent.
  void BeginDrain();

  /// Waits for all accepted jobs to finish, then closes the listener,
  /// drains the handlers and joins. Idempotent with Stop().
  void DrainAndStop() PMKM_EXCLUDES(mu_);

  /// Immediate shutdown: closes the listener and joins handlers without
  /// waiting for queued jobs (their state is simply dropped with the
  /// process). Prefer BeginDrain + DrainAndStop.
  void Stop() PMKM_EXCLUDES(mu_);

  /// The re-dialable endpoint actually bound (ephemeral port resolved).
  const std::string& bound_endpoint() const { return bound_endpoint_; }

  /// The hosted service (valid after Start), e.g. for tests to submit
  /// in-process or to mount extra introspection.
  LocalService* service() { return service_.get(); }

 private:
  void AcceptLoop();
  // Runs on the bounded handler pool; all socket I/O inside is bounded by
  // options_.io_timeout_ms (SO_RCVTIMEO/SO_SNDTIMEO, set in AcceptLoop).
  void HandleConnection(int fd) PMKM_BOUNDED_HANDLER;
  /// One request frame → one reply frame, dispatched to the service.
  /// Sets *hang_up when the session must end after this reply.
  std::vector<uint8_t> Dispatch(const Frame& request, bool* hang_up);
  /// Answers kAwaitJob: parks on the service for a clamped slice.
  std::vector<uint8_t> AwaitReply(const Frame& request, bool* hang_up);
  bool stopping() const PMKM_EXCLUDES(mu_);

  DaemonOptions options_;
  std::string bound_endpoint_;
  std::unique_ptr<LocalService> service_;
  std::unique_ptr<ThreadPool> pool_;
  std::thread accept_thread_;

  mutable Mutex mu_;
  bool running_ PMKM_GUARDED_BY(mu_) = false;
  int listen_fd_ PMKM_GUARDED_BY(mu_) = -1;
};

}  // namespace serve
}  // namespace pmkm

#endif  // PMKM_SERVE_DAEMON_H_
