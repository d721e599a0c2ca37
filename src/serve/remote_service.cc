#include "serve/remote_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/net.h"

namespace pmkm {
namespace serve {

namespace {

// Dials `endpoint` and performs the hello exchange with NO locks held
// (network I/O must not run under mu_ — pmkm_ctxcheck rule
// no-block-under-lock). On success *out_fd/*out_version are the connected
// socket and the negotiated version; on failure the socket is closed.
Status DialAndHello(const std::string& endpoint, int* out_fd,
                    uint32_t* out_version) {
  PMKM_ASSIGN_OR_RETURN(const int fd, DialEndpoint(endpoint));
  // Hello exchange: send ours, read theirs, settle on min.
  const std::vector<uint8_t> hello = EncodeHello(kProtocolVersion);
  Status st = WriteAll(fd, hello);
  uint8_t peer_hello[kHelloBytes];
  if (st.ok()) st = ReadExact(fd, peer_hello);
  uint32_t peer_version = 0;
  if (st.ok()) {
    Result<uint32_t> decoded =
        DecodeHello(std::span<const uint8_t>(peer_hello, kHelloBytes));
    if (decoded.ok()) {
      peer_version = decoded.value();
    } else {
      st = decoded.error();
    }
  }
  if (st.ok()) {
    Result<uint32_t> negotiated = NegotiateVersion(peer_version);
    if (negotiated.ok()) {
      *out_version = negotiated.value();
    } else {
      st = negotiated.error();
    }
  }
  if (!st.ok()) {
    CloseFd(fd);
    return st;
  }
  *out_fd = fd;
  return Status::OK();
}

// One request/reply round trip on `fd` with NO locks held. The caller
// owns the session via busy_ and hands in the carry-over read buffer;
// on success `buffer` holds any bytes read past the reply frame.
Status Exchange(int fd, FrameType type, const std::vector<uint8_t>& payload,
                std::vector<uint8_t>* buffer, Reply* reply) {
  PMKM_RETURN_NOT_OK(WriteAll(fd, EncodeFrame(type, payload)));
  // Accumulate bytes until one complete frame decodes.
  uint8_t chunk[4096];
  while (true) {
    size_t consumed = 0;
    PMKM_ASSIGN_OR_RETURN(std::optional<Frame> frame,
                          DecodeFrame(*buffer, &consumed));
    if (frame.has_value()) {
      buffer->erase(buffer->begin(),
                    buffer->begin() + static_cast<ptrdiff_t>(consumed));
      if (frame->type != static_cast<uint32_t>(FrameType::kReply)) {
        return Status::IOError("protocol error: expected a reply frame, "
                               "got type " + std::to_string(frame->type));
      }
      PMKM_ASSIGN_OR_RETURN(*reply, DecodeReply(frame->payload));
      return Status::OK();
    }
    PMKM_ASSIGN_OR_RETURN(const size_t n, ReadSome(fd, chunk));
    if (n == 0) {
      return Status::IOError("server closed the connection mid-reply");
    }
    buffer->insert(buffer->end(), chunk, chunk + n);
  }
}

}  // namespace

RemoteService::~RemoteService() { Disconnect(); }

Status RemoteService::Connect(const std::string& endpoint) {
  {
    MutexLock lock(mu_);
    // Reserve the session before dialing: busy_ keeps a concurrent
    // Connect/Call/Disconnect off fd_ while the handshake runs off-lock.
    while (busy_) io_done_.Wait(mu_);
    if (fd_ >= 0) {
      return Status::FailedPrecondition("already connected");
    }
    busy_ = true;
  }
  int fd = -1;
  uint32_t version = 0;
  const Status st = DialAndHello(endpoint, &fd, &version);
  MutexLock lock(mu_);
  busy_ = false;
  io_done_.NotifyAll();
  if (!st.ok()) return st;
  fd_ = fd;
  version_ = version;
  read_buffer_.clear();
  return Status::OK();
}

void RemoteService::Disconnect() {
  MutexLock lock(mu_);
  // An in-flight exchange owns fd_ with mu_ released; closing now could
  // recycle the descriptor under it. Wait the exchange out — exactly what
  // Disconnect did when exchanges held mu_ throughout, minus the lock.
  while (busy_) io_done_.Wait(mu_);
  CloseFd(fd_);
  fd_ = -1;
  version_ = 0;
  read_buffer_.clear();
}

bool RemoteService::connected() const {
  MutexLock lock(mu_);
  return fd_ >= 0;
}

uint32_t RemoteService::negotiated_version() const {
  MutexLock lock(mu_);
  return version_;
}

Status RemoteService::Ping() {
  PMKM_ASSIGN_OR_RETURN(Reply reply, Call(FrameType::kPing, {}));
  return reply.status;
}

Result<uint64_t> RemoteService::SubmitJob(const JobSpec& spec) {
  PMKM_ASSIGN_OR_RETURN(Reply reply,
                        Call(FrameType::kSubmitJob, EncodeJobSpec(spec)));
  PMKM_RETURN_NOT_OK(reply.status);
  return DecodeU64(reply.body);
}

Result<JobInfo> RemoteService::JobStatus(uint64_t job_id) {
  PMKM_ASSIGN_OR_RETURN(
      Reply reply, Call(FrameType::kJobStatus, EncodeU64(job_id)));
  PMKM_RETURN_NOT_OK(reply.status);
  return DecodeJobInfo(reply.body);
}

Result<std::map<GridCellId, CellClustering>> RemoteService::FetchModel(
    uint64_t job_id) {
  PMKM_ASSIGN_OR_RETURN(
      Reply reply, Call(FrameType::kFetchModel, EncodeU64(job_id)));
  PMKM_RETURN_NOT_OK(reply.status);
  return DecodeModelSet(reply.body);
}

Status RemoteService::CancelJob(uint64_t job_id) {
  PMKM_ASSIGN_OR_RETURN(
      Reply reply, Call(FrameType::kCancelJob, EncodeU64(job_id)));
  return reply.status;
}

Result<std::vector<JobInfo>> RemoteService::ListJobs() {
  PMKM_ASSIGN_OR_RETURN(Reply reply, Call(FrameType::kListJobs, {}));
  PMKM_RETURN_NOT_OK(reply.status);
  return DecodeJobList(reply.body);
}

Result<JobInfo> RemoteService::AwaitJob(uint64_t job_id,
                                        uint64_t timeout_ms) {
  // One kAwaitJob per slice: the daemon answers the moment the job turns
  // terminal, or with its live state once the slice (capped server-side
  // at kMaxAwaitSliceMs) passes. Loop until terminal or our deadline.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  uint64_t left_ms = timeout_ms;
  while (true) {
    // Never 0 on the wire: a zero wait_ms means the server's cap.
    const uint64_t slice_ms = timeout_ms == 0
                                  ? kMaxAwaitSliceMs
                                  : std::min(left_ms, kMaxAwaitSliceMs);
    PMKM_ASSIGN_OR_RETURN(
        Reply reply,
        Call(FrameType::kAwaitJob, EncodeAwaitRequest({job_id, slice_ms})));
    PMKM_RETURN_NOT_OK(reply.status);
    PMKM_ASSIGN_OR_RETURN(JobInfo info, DecodeJobInfo(reply.body));
    if (IsTerminal(info.state)) return info;
    if (timeout_ms == 0) continue;
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      return AwaitDeadlineExceeded(job_id, info.state, timeout_ms);
    }
    left_ms = static_cast<uint64_t>(left.count());
  }
}

Result<Reply> RemoteService::Call(FrameType type,
                                  std::vector<uint8_t> payload) {
  int fd = -1;
  std::vector<uint8_t> buffer;
  {
    MutexLock lock(mu_);
    // Waiting on io_done_ releases mu_ while parked; the socket round
    // trip below then runs with no lock held at all.
    while (busy_) io_done_.Wait(mu_);
    if (fd_ < 0) return Status::FailedPrecondition("not connected");
    busy_ = true;
    fd = fd_;
    buffer = std::move(read_buffer_);
    read_buffer_.clear();
  }
  Reply reply;
  const Status st = Exchange(fd, type, payload, &buffer, &reply);
  MutexLock lock(mu_);
  // busy_ was ours the whole time, so fd_ is still the fd we used.
  busy_ = false;
  io_done_.NotifyAll();
  if (!st.ok()) {
    // Transport failure: the stream position is unknowable, so poison
    // the connection rather than risk desynchronized frames.
    CloseFd(fd_);
    fd_ = -1;
    read_buffer_.clear();
    return st;
  }
  read_buffer_ = std::move(buffer);
  return reply;
}

}  // namespace serve
}  // namespace pmkm
