// DebugServer: an embedded, dependency-free HTTP/1.1 introspection server
// for live observability (DESIGN.md §14). While a pipeline runs you can:
//
//   curl localhost:PORT/metrics   Prometheus exposition (incl. rolling
//                                 last-minute quantiles)
//   curl localhost:PORT/statusz   build info, uptime, active run and the
//                                 live per-operator stats table
//   curl localhost:PORT/runz      JSON of the current/most recent run
//                                 (StreamRunResult + checkpoint state)
//   curl localhost:PORT/tracez    recent span samples from the trace ring
//   curl localhost:PORT/pprofz    folded-stack CPU profile (flamegraph
//                                 input) when the profiler is running
//   curl localhost:PORT/healthz   liveness probe
//
// Threat/robustness model: this binds to loopback only and is a
// diagnostics port, not a public API. Still, it must not let a stuck
// client wedge the process. The shared ConnectionServer
// (common/connection_server.h) hands connections to a bounded handler
// pool and puts a timeout on every socket read/write (slow-loris bound);
// on top of it the request size is capped and responses close the
// connection. Stop() (or destruction) shuts the listener down and joins
// everything.
//
// Request handling is split from socket I/O: RenderResponse(target)
// produces the full HTTP response for a GET target, so tests (and the
// schedcheck sweep) can drive every endpoint against live pipeline state
// without opening sockets.

#ifndef PMKM_OBS_DEBUG_SERVER_H_
#define PMKM_OBS_DEBUG_SERVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/annotations.h"
#include "common/connection_server.h"
#include "common/status.h"
#include "obs/runboard.h"

namespace pmkm {

class MetricsRegistry;
class TraceRecorder;

namespace obs {

class DebugServer : public ConnectionServer {
 public:
  struct Options {
    /// TCP port; 0 asks the kernel for an ephemeral one (read it back
    /// with port() after Start).
    int port = 0;
    /// Connection-handler pool size (bounds concurrent scrapes).
    size_t num_threads = 2;
    /// Socket read/write timeout — a slow-loris client is cut off after
    /// this long, freeing its handler thread.
    int io_timeout_ms = 2000;
    /// Request size cap; longer requests get 431 and a closed socket.
    size_t max_request_bytes = 8192;
  };

  /// Either sink may be null; the matching endpoints then report
  /// "not collected". The server does not own the sinks and must be
  /// stopped before they are destroyed.
  DebugServer(MetricsRegistry* metrics, TraceRecorder* trace);
  ~DebugServer() override;

  /// Listens on 127.0.0.1:<port> and starts serving. Stop() (inherited,
  /// idempotent, also called by the destructor) stops accepting, drains
  /// in-flight handlers and joins all threads.
  Status Start(const Options& options);
  Status Start() { return Start(Options()); }

  /// The bound port (valid after a successful Start).
  int port() const { return port_; }

  /// The live run state the engine publishes into
  /// (PipelineBuilder::WithDebugServer wires this up).
  RunBoard* board() { return &board_; }

  /// Renders the body of one registered endpoint; invoked per request on
  /// a handler thread, so it must be thread-safe.
  using EndpointHandler = std::function<std::string()>;

  /// Mounts an extra endpoint at `path` (e.g. "/jobz" — must start with
  /// '/'). The handler's return value is served verbatim with the given
  /// content type, and the endpoint is listed on the index page with
  /// `description`. Hosts use this to expose process-specific state (the
  /// serve daemon mounts its live job table here). Registering an
  /// already-mounted path replaces the handler; built-in endpoints cannot
  /// be shadowed. Handlers must be bounded: render from in-memory state
  /// under short locks — no socket/file I/O, no unbounded waits (the
  /// pmkm_ctxcheck bounded-handler rule relies on this contract).
  void RegisterEndpoint(const std::string& path,
                        const std::string& description,
                        const std::string& content_type,
                        EndpointHandler handler) PMKM_EXCLUDES(mu_);

  /// Renders the complete HTTP response for `GET <target>` (path plus
  /// optional query string). Thread-safe; used by the socket layer and
  /// directly by tests.
  std::string RenderResponse(const std::string& target) const;

 private:
  void HandleConnection(int fd) override;
  /// The response to one complete request (request line plus headers).
  std::string Respond(const std::string& request) const;

  // Endpoint bodies (path → content); also sets `content_type`.
  std::string RenderBody(const std::string& path,
                         std::string* content_type, int* http_status) const;
  std::string RenderIndex() const;
  std::string RenderStatusz() const;
  std::string RenderTracez() const;

  MetricsRegistry* const metrics_;
  TraceRecorder* const trace_;
  RunBoard board_;
  Options options_;
  int port_ = -1;

  struct Endpoint {
    std::string description;
    std::string content_type;
    EndpointHandler handler;
  };

  mutable Mutex mu_;
  std::map<std::string, Endpoint> endpoints_ PMKM_GUARDED_BY(mu_);

  uint64_t started_micros_ = 0;
};

}  // namespace obs
}  // namespace pmkm

#endif  // PMKM_OBS_DEBUG_SERVER_H_
