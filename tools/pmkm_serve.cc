// pmkm_serve: the clustering-as-a-service daemon. Hosts a LocalService
// behind the versioned serve wire protocol (DESIGN.md §15) on a unix or
// loopback TCP endpoint, with admission control, per-client job caps and
// graceful drain on SIGTERM/SIGINT.
//
//   pmkm_serve --endpoint=unix:/tmp/pmkm.sock --workers=2
//   pmkm_serve --endpoint=127.0.0.1:0 --debug_port=0
//
// The bound endpoint is printed as "listening on <endpoint>" once the
// daemon is up (scripts and the serve-smoke CI job key on that line).
// SIGTERM begins a drain: admission stops, every accepted job runs to
// completion and stays fetchable until the last one finishes, then the
// process exits 0.

#include <csignal>
#include <iostream>
#include <string>

#include "common/flags.h"
#include "common/logging.h"
#include "common/status.h"
#include "obs/debug_server.h"
#include "obs/metrics.h"
#include "serve/daemon.h"

namespace {

int FailWith(const pmkm::Status& status) {
  std::cerr << "pmkm_serve: " << status.ToString() << std::endl;
  return pmkm::StatusExitCode(status);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pmkm;  // NOLINT

  std::string endpoint = "127.0.0.1:0";
  int64_t workers = 2;
  int64_t max_queued_jobs = 16;
  int64_t max_jobs_per_client = 4;
  int64_t finished_retention = 64;
  int64_t budget_memory_kib = 0;
  int64_t budget_cores = 0;
  int64_t handler_threads = 4;
  int64_t io_timeout_ms = 60000;
  ObsFlags obs_flags;

  FlagParser parser;
  parser
      .SetDescription(
          "pmkm_serve: clustering-as-a-service daemon hosting the "
          "ClusterService API over the framed serve protocol.")
      .AddString("endpoint", &endpoint,
                 "listen endpoint: unix:/path or 127.0.0.1:port "
                 "(port 0 = ephemeral)")
      .AddInt("workers", &workers, "concurrent clustering jobs")
      .AddInt("max_queued_jobs", &max_queued_jobs,
              "admission bound on jobs waiting for a worker")
      .AddInt("max_jobs_per_client", &max_jobs_per_client,
              "per-client cap on live jobs (0 = uncapped)")
      .AddInt("finished_retention", &finished_retention,
              "finished jobs kept for status/fetch before eviction")
      .AddInt("budget_memory_kib", &budget_memory_kib,
              "per-operator memory ceiling imposed on every job "
              "(0 = jobs keep their own ask)")
      .AddInt("budget_cores", &budget_cores,
              "core ceiling imposed on every job: one partial clone per "
              "core, plus scan and merge threads that mostly block "
              "(0 = host default)")
      .AddInt("handler_threads", &handler_threads,
              "concurrent client connections served")
      .AddInt("io_timeout_ms", &io_timeout_ms,
              "per-socket-op timeout for clients (0 = none)");
  obs_flags.Register(&parser);

  {
    const Status status = parser.Parse(argc, argv);
    if (status.IsCancelled()) return 0;  // --help
    if (!status.ok()) {
      std::cerr << parser.Usage(argv[0]);
      return FailWith(status);
    }
  }
  if (const Status status = obs_flags.Apply(); !status.ok()) {
    return FailWith(status);
  }
  if (workers <= 0 || max_queued_jobs <= 0 || handler_threads <= 0 ||
      finished_retention < 0 || max_jobs_per_client < 0) {
    return FailWith(Status::InvalidArgument(
        "--workers, --max_queued_jobs and --handler_threads must be >= 1; "
        "caps must be >= 0"));
  }

  // Block the shutdown signals before any thread exists so every thread
  // inherits the mask and sigwait() below is the single delivery point.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  // Optional live introspection server (shared --debug_port flag).
  MetricsRegistry metrics;
  obs::DebugServer debug_server(&metrics, nullptr);
  serve::DaemonOptions options;
  if (obs_flags.serve_requested()) {
    obs::DebugServer::Options server_options;
    server_options.port = static_cast<int>(obs_flags.debug_port);
    if (const Status status = debug_server.Start(server_options);
        !status.ok()) {
      return FailWith(status);
    }
    std::cout << "debug server listening on http://127.0.0.1:"
              << debug_server.port() << "/" << std::endl;
    options.service.debug_server = &debug_server;
  }

  options.endpoint = endpoint;
  options.service.num_workers = static_cast<size_t>(workers);
  options.service.max_queued_jobs = static_cast<size_t>(max_queued_jobs);
  options.service.max_jobs_per_client =
      static_cast<size_t>(max_jobs_per_client);
  options.service.finished_retention =
      static_cast<size_t>(finished_retention);
  if (budget_memory_kib > 0) {
    options.service.budget.memory_bytes_per_operator =
        static_cast<size_t>(budget_memory_kib) << 10;
  } else {
    options.service.budget.memory_bytes_per_operator = 0;  // no ceiling
  }
  options.service.budget.cores = static_cast<size_t>(budget_cores);
  options.num_handler_threads = static_cast<size_t>(handler_threads);
  options.io_timeout_ms = static_cast<int>(io_timeout_ms);

  serve::ServeDaemon daemon;
  if (const Status status = daemon.Start(options); !status.ok()) {
    return FailWith(status);
  }
  if (daemon.service() != nullptr && obs_flags.serve_requested()) {
    // Live job table on the debug server.
    serve::LocalService* service = daemon.service();
    debug_server.RegisterEndpoint(
        "/jobz", "live job table (queued/running/finished)",
        "application/json", [service] { return service->JobsJson(); });
  }
  std::cout << "listening on " << daemon.bound_endpoint() << std::endl;

  // Park until SIGTERM/SIGINT, then drain: stop admission, let every
  // accepted job finish (still serving status/fetch), and exit cleanly.
  int sig = 0;
  sigwait(&sigs, &sig);
  std::cout << "signal " << sig
            << " received; draining accepted jobs" << std::endl;
  daemon.BeginDrain();
  daemon.DrainAndStop();
  std::cout << "drained; exiting" << std::endl;
  return 0;
}
