#include "serve/daemon.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/net.h"

namespace pmkm {
namespace serve {

ServeDaemon::~ServeDaemon() { Stop(); }

Status ServeDaemon::Start(const DaemonOptions& options) {
  if (!stopping()) {
    return Status::FailedPrecondition("daemon already running");
  }
  service_ = std::make_unique<LocalService>(options.service);
  const Status status = ConnectionServer::Start(
      options.endpoint, options.num_handler_threads, options.io_timeout_ms);
  if (!status.ok()) {
    service_.reset();
    return status;
  }
  PMKM_LOG(Info) << "serve daemon listening on " << bound_endpoint();
  return Status::OK();
}

void ServeDaemon::BeginDrain() {
  if (service_ != nullptr) service_->BeginDrain();
}

void ServeDaemon::DrainAndStop() {
  if (service_ != nullptr) {
    service_->BeginDrain();
    service_->Drain();
  }
  Stop();
}

void ServeDaemon::Stop() {
  ConnectionServer::Stop();
  if (service_ != nullptr) service_->Shutdown();
}

void ServeDaemon::HandleConnection(int fd) {
  // Hello exchange; an invalid or too-old client is dropped here. All
  // socket I/O below is bounded by SO_RCVTIMEO/SO_SNDTIMEO
  // (DaemonOptions::io_timeout_ms, set by ConnectionServer's accept loop).
  uint8_t peer_hello[kHelloBytes];
  // pmkm-ctxcheck: allow(bounded-handler)
  if (!ReadExact(fd, peer_hello).ok()) {
    CloseFd(fd);
    return;
  }
  Result<uint32_t> peer_version =
      DecodeHello(std::span<const uint8_t>(peer_hello, kHelloBytes));
  if (!peer_version.ok()) {
    CloseFd(fd);
    return;
  }
  // Answer with our version even when rejecting, so an old client's error
  // message can name both versions.
  // pmkm-ctxcheck: allow(bounded-handler)  (SO_SNDTIMEO-bounded)
  if (!WriteAll(fd, EncodeHello(kProtocolVersion)).ok()) {
    CloseFd(fd);
    return;
  }
  if (!NegotiateVersion(peer_version.value()).ok()) {
    CloseFd(fd);
    return;
  }

  // Request/reply loop until the client hangs up or the stream breaks.
  std::vector<uint8_t> buffer;
  uint8_t chunk[4096];
  while (true) {
    size_t consumed = 0;
    Result<std::optional<Frame>> frame = DecodeFrame(buffer, &consumed);
    if (!frame.ok()) {
      // Oversized or corrupt frame: this session is poisoned. Best-effort
      // error reply, then hang up.
      const std::vector<uint8_t> reply =
          EncodeReply(frame.error(), std::vector<uint8_t>());
      // pmkm-ctxcheck: allow(bounded-handler)  (SO_SNDTIMEO-bounded)
      (void)WriteAll(fd, EncodeFrame(FrameType::kReply, reply));
      break;
    }
    if (frame.value().has_value()) {
      buffer.erase(buffer.begin(),
                   buffer.begin() + static_cast<ptrdiff_t>(consumed));
      bool hang_up = false;
      const std::vector<uint8_t> reply = Dispatch(*frame.value(), &hang_up);
      // pmkm-ctxcheck: allow(bounded-handler)  (SO_SNDTIMEO-bounded)
      if (!WriteAll(fd, EncodeFrame(FrameType::kReply, reply)).ok() ||
          hang_up) {
        break;
      }
      continue;
    }
    // pmkm-ctxcheck: allow(bounded-handler)  (SO_RCVTIMEO-bounded)
    Result<size_t> n = ReadSome(fd, chunk);
    if (!n.ok() || n.value() == 0) break;  // hangup or timeout
    buffer.insert(buffer.end(), chunk, chunk + n.value());
  }
  CloseFd(fd);
}

std::vector<uint8_t> ServeDaemon::Dispatch(const Frame& request,
                                           bool* hang_up) {
  const std::vector<uint8_t> empty;
  switch (static_cast<FrameType>(request.type)) {
    case FrameType::kPing:
      return EncodeReply(Status::OK(), empty);
    case FrameType::kSubmitJob: {
      Result<JobSpec> spec = DecodeJobSpec(request.payload);
      if (!spec.ok()) return EncodeReply(spec.error(), empty);
      // Checkpointing writes files; a remote client must not pick where
      // the daemon writes them.
      if (!spec.value().engine.checkpoint_dir.empty()) {
        return EncodeReply(
            Status::InvalidArgument(
                "checkpoint_dir is not accepted from a remote client"),
            empty);
      }
      Result<uint64_t> job_id = service_->SubmitJob(spec.value());
      if (!job_id.ok()) return EncodeReply(job_id.error(), empty);
      return EncodeReply(Status::OK(), EncodeU64(job_id.value()));
    }
    case FrameType::kJobStatus: {
      Result<uint64_t> job_id = DecodeU64(request.payload);
      if (!job_id.ok()) return EncodeReply(job_id.error(), empty);
      Result<JobInfo> info = service_->JobStatus(job_id.value());
      if (!info.ok()) return EncodeReply(info.error(), empty);
      return EncodeReply(Status::OK(), EncodeJobInfo(info.value()));
    }
    case FrameType::kFetchModel: {
      Result<uint64_t> job_id = DecodeU64(request.payload);
      if (!job_id.ok()) return EncodeReply(job_id.error(), empty);
      Result<std::map<GridCellId, CellClustering>> cells =
          service_->FetchModel(job_id.value());
      if (!cells.ok()) return EncodeReply(cells.error(), empty);
      return EncodeReply(Status::OK(), EncodeModelSet(cells.value()));
    }
    case FrameType::kCancelJob: {
      Result<uint64_t> job_id = DecodeU64(request.payload);
      if (!job_id.ok()) return EncodeReply(job_id.error(), empty);
      return EncodeReply(service_->CancelJob(job_id.value()), empty);
    }
    case FrameType::kListJobs: {
      Result<std::vector<JobInfo>> jobs = service_->ListJobs();
      if (!jobs.ok()) return EncodeReply(jobs.error(), empty);
      return EncodeReply(Status::OK(), EncodeJobList(jobs.value()));
    }
    case FrameType::kAwaitJob:
      return AwaitReply(request, hang_up);
    case FrameType::kReply:
      break;
  }
  return EncodeReply(
      Status::InvalidArgument("unknown request frame type " +
                              std::to_string(request.type)),
      empty);
}

std::vector<uint8_t> ServeDaemon::AwaitReply(const Frame& request,
                                             bool* hang_up) {
  const std::vector<uint8_t> empty;
  Result<AwaitRequest> await = DecodeAwaitRequest(request.payload);
  if (!await.ok()) return EncodeReply(await.error(), empty);
  const uint64_t job_id = await->job_id;
  // Parks this session's handler for at most one slice (protocol.h says
  // why that is enough).
  const uint64_t slice_ms =
      await->wait_ms == 0 ? kMaxAwaitSliceMs
                          : std::min(await->wait_ms, kMaxAwaitSliceMs);
  Result<JobInfo> info = service_->AwaitJob(job_id, slice_ms);
  if (!info.ok() && info.status().IsDeadlineExceeded()) {
    if (stopping()) {
      // The client would only re-issue the slice; end the session so
      // Stop() can join this handler.
      *hang_up = true;
      return EncodeReply(
          Status::FailedPrecondition("daemon is stopping; job " +
                                     std::to_string(job_id) +
                                     " is still live"),
          empty);
    }
    // Slice over, job still live: answer with its current state.
    info = service_->JobStatus(job_id);
  }
  if (!info.ok()) return EncodeReply(info.error(), empty);
  return EncodeReply(Status::OK(), EncodeJobInfo(info.value()));
}

}  // namespace serve
}  // namespace pmkm
