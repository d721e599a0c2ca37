// ConnectionServer: the one local socket server under the debug server
// (obs/debug_server.h) and the serve daemon (serve/daemon.h). It listens
// on an endpoint (common/net.h), runs one accept thread, puts the io
// timeout on every accepted socket (slow-loris bound: a stalled client
// times out instead of pinning a handler), and hands each connection to
// a fixed handler pool, so at most `handler_threads` connections are
// served at once while the rest wait in the accept backlog. A derived
// server supplies only HandleConnection.
//
// Stop() closes the listener (a blocked accept returns), joins the accept
// thread, drains the handler pool and removes a unix socket file. A
// derived destructor must call Stop() itself: a handler still running
// while the derived members die would use them.
//
// An accept failure with the listener still open (EMFILE, ENFILE,
// ENOBUFS) leaves the connection pending, so an immediate retry fails
// again and spins a core until an fd frees up; the accept loop waits
// 10 ms (or until Stop()) before retrying.

#ifndef PMKM_COMMON_CONNECTION_SERVER_H_
#define PMKM_COMMON_CONNECTION_SERVER_H_

#include <cstddef>
#include <memory>
#include <string>
#include <thread>

#include "common/annotations.h"
#include "common/status.h"

namespace pmkm {

class ThreadPool;

class ConnectionServer {
 public:
  ConnectionServer();
  virtual ~ConnectionServer();

  ConnectionServer(const ConnectionServer&) = delete;
  ConnectionServer& operator=(const ConnectionServer&) = delete;

  /// Closes the listener, joins the accept thread and drains in-flight
  /// handlers. Idempotent.
  void Stop() PMKM_EXCLUDES(mu_);

  /// The re-dialable endpoint actually bound (ephemeral port resolved).
  const std::string& bound_endpoint() const { return bound_endpoint_; }

  /// True unless the server is running: before Start, and from the moment
  /// Stop() begins.
  bool stopping() const PMKM_EXCLUDES(mu_);

 protected:
  /// Listens on `endpoint` and starts the handler pool (`handler_threads`,
  /// at least 1) and the accept thread. Every socket op on a connection
  /// times out after `io_timeout_ms` (0 disables). FailedPrecondition
  /// while running.
  Status Start(const std::string& endpoint, size_t handler_threads,
               int io_timeout_ms) PMKM_EXCLUDES(mu_);

 private:
  /// Serves one accepted connection on a handler thread, then closes `fd`.
  /// Its socket I/O is bounded by the io timeout set in AcceptLoop.
  virtual void HandleConnection(int fd) PMKM_BOUNDED_HANDLER = 0;

  void AcceptLoop() PMKM_EXCLUDES(mu_);

  std::string bound_endpoint_;
  int io_timeout_ms_ = 0;
  std::unique_ptr<ThreadPool> pool_;

  mutable Mutex mu_;
  CondVar stopped_;  // ends an accept back-off early
  bool running_ PMKM_GUARDED_BY(mu_) = false;
  int listen_fd_ PMKM_GUARDED_BY(mu_) = -1;

  std::thread accept_thread_;
};

}  // namespace pmkm

#endif  // PMKM_COMMON_CONNECTION_SERVER_H_
