#include "common/connection_server.h"

#include <chrono>

#include "common/net.h"
#include "common/thread_pool.h"

namespace pmkm {

namespace {

// Wait between a failed accept and the next attempt.
constexpr std::chrono::milliseconds kAcceptBackoff(10);

}  // namespace

ConnectionServer::ConnectionServer() = default;

ConnectionServer::~ConnectionServer() { Stop(); }

Status ConnectionServer::Start(const std::string& endpoint,
                               size_t handler_threads, int io_timeout_ms) {
  {
    MutexLock lock(mu_);
    if (running_) {
      return Status::FailedPrecondition("already listening on " +
                                        bound_endpoint_);
    }
  }
  PMKM_ASSIGN_OR_RETURN(Listener listener, ListenEndpoint(endpoint));
  bound_endpoint_ = listener.endpoint;
  io_timeout_ms_ = io_timeout_ms;
  pool_ = std::make_unique<ThreadPool>(handler_threads);
  {
    MutexLock lock(mu_);
    // Both labels keep the names the debug server gave them.
    PMKM_SCHED_POINT("debug_server.start");
    listen_fd_ = listener.fd;
    running_ = true;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void ConnectionServer::Stop() {
  int fd = -1;
  {
    MutexLock lock(mu_);
    PMKM_SCHED_POINT("debug_server.stop");
    if (!running_) return;
    running_ = false;
    fd = listen_fd_;
    listen_fd_ = -1;
    stopped_.NotifyAll();
  }
  CloseFd(fd);  // unblocks accept() and releases the port
  if (accept_thread_.joinable()) accept_thread_.join();
  pool_->Shutdown();  // drains in-flight handlers
  pool_.reset();
  CleanupEndpoint(bound_endpoint_);
}

bool ConnectionServer::stopping() const {
  MutexLock lock(mu_);
  return !running_;
}

void ConnectionServer::AcceptLoop() {
  while (true) {
    int listen_fd;
    {
      MutexLock lock(mu_);
      if (!running_) return;
      listen_fd = listen_fd_;
    }
    Result<int> conn = AcceptConnection(listen_fd);
    if (!conn.ok()) {
      MutexLock lock(mu_);
      if (!running_) return;  // Stop() closed the listener under us
      stopped_.WaitFor(mu_, kAcceptBackoff);
      continue;
    }
    const int fd = conn.value();
    if (!SetIoTimeout(fd, io_timeout_ms_).ok()) {
      CloseFd(fd);
      continue;
    }
    auto future = pool_->Submit([this, fd] { HandleConnection(fd); });
    if (!future.valid()) {
      CloseFd(fd);  // pool already shut down
      return;
    }
  }
}

}  // namespace pmkm
