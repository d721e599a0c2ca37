// ClusterService: the versioned clustering-as-a-service API (DESIGN.md
// §15). A service accepts partial/merge clustering *jobs* — the same
// EngineOptions surface PipelineBuilder runs — executes them
// asynchronously, and hands back the per-cell models.
//
// Two interchangeable implementations ship behind this interface:
//
//   LocalService  (serve/local_service.h)  in-process job queue + worker
//                                          pool wrapping PipelineBuilder
//   RemoteService (serve/remote_service.h) client over the framed binary
//                                          protocol (serve/protocol.h) to
//                                          a pmkm_serve daemon
//
// A daemon's clients program against ClusterService, so a remote job and
// an in-process PipelineBuilder run give byte-identical models; the
// serve-smoke CI job holds pmkm_cluster's two paths to that.

#ifndef PMKM_SERVE_SERVICE_H_
#define PMKM_SERVE_SERVICE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "data/grid.h"
#include "stream/engine.h"
#include "stream/ops.h"

namespace pmkm {
namespace serve {

/// Lifecycle of one submitted job.
///
///   kQueued → kRunning → {kDone, kFailed, kCancelled}
///   kQueued → kCancelled            (cancelled before a worker picked it)
///
/// The three right-hand states are terminal.
enum class JobState : uint32_t {
  kQueued = 0,
  kRunning = 1,
  kDone = 2,
  kFailed = 3,
  kCancelled = 4,
};

const char* JobStateToString(JobState state);

/// The DeadlineExceeded every AwaitJob implementation returns when
/// `timeout_ms` passes with the job still in `state`.
Status AwaitDeadlineExceeded(uint64_t job_id, JobState state,
                             uint64_t timeout_ms);

inline bool IsTerminal(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

/// Everything one clustering job needs, expressed as the validated flag
/// surface (EngineFlags) plus the input bucket files. Using the flag
/// struct — strings for policy/kernel, sizes in KiB — keeps the wire
/// codec trivial and reuses EngineFlags::ToOptions() as the single
/// validation path on both ends.
struct JobSpec {
  /// On-disk grid-bucket files, as visible to the *executing* service
  /// (a remote daemon resolves these against its own filesystem).
  std::vector<std::string> bucket_paths;

  /// Engine configuration (k, restarts, memory budget, failure policy,
  /// kernel, checkpointing). The service clamps the resource asks into
  /// its own budget before running. A daemon rejects a remote spec with
  /// a checkpoint_dir: where it writes is its own business.
  EngineFlags engine;

  /// Explicit run id for artifact correlation (empty = generated).
  std::string run_id;

  /// Admission-control identity: per-client job caps are keyed on this.
  /// Empty means the anonymous client.
  std::string client;

  /// Validates and converts to the options PipelineBuilder consumes.
  Result<EngineOptions> ToEngineOptions() const {
    return engine.ToOptions();
  }
};

/// Snapshot of one job's lifecycle, as returned by JobStatus/ListJobs.
struct JobInfo {
  uint64_t job_id = 0;
  JobState state = JobState::kQueued;
  std::string client;
  std::string run_id;

  /// Terminal status: OK for kDone, the failure for kFailed, Cancelled
  /// for kCancelled. OK (meaningless) while queued/running.
  Status status;

  /// Model summary, populated once kDone.
  uint64_t cells = 0;
  double wall_seconds = 0.0;
};

/// The service interface. All methods are thread-safe; job ids are unique
/// for the lifetime of the service instance.
class ClusterService {
 public:
  virtual ~ClusterService() = default;

  /// Admits a job and returns its id without waiting for execution.
  /// Fails with InvalidArgument on a bad spec and FailedPrecondition when
  /// admission control rejects it (queue full, per-client cap, draining).
  virtual Result<uint64_t> SubmitJob(const JobSpec& spec) = 0;

  /// Snapshot of one job; NotFound for an unknown or expired id.
  virtual Result<JobInfo> JobStatus(uint64_t job_id) = 0;

  /// The finished per-cell models. FailedPrecondition until the job is
  /// kDone; the terminal status itself for kFailed/kCancelled jobs.
  /// Models are bit-exact across implementations: the wire codec reuses
  /// the checkpoint cell codec, which round-trips doubles bitwise.
  virtual Result<std::map<GridCellId, CellClustering>> FetchModel(
      uint64_t job_id) = 0;

  /// Requests cancellation: a queued job is cancelled immediately, a
  /// running one stops cooperatively at the next work-unit boundary.
  /// Returns OK once the request is registered (the job may still be
  /// draining); FailedPrecondition if the job already reached a terminal
  /// state, NotFound for an unknown id.
  virtual Status CancelJob(uint64_t job_id) = 0;

  /// All jobs the service still remembers (active plus a bounded ring of
  /// finished ones), in strictly ascending job_id order — i.e. submission
  /// order, oldest first. The ordering is part of the API contract (and
  /// of the wire encoding, EncodeJobList): clients, /jobz scrapers, and
  /// byte-level golden tests all rely on ListJobs output being stable
  /// regardless of completion/cancellation order (pmkm_detcheck rule
  /// `unordered-iter` guards the same property statically).
  virtual Result<std::vector<JobInfo>> ListJobs() = 0;

  /// Blocks until `job_id` reaches a terminal state and returns its final
  /// JobInfo. `timeout_ms` = 0 waits forever; on expiry returns
  /// DeadlineExceeded (AwaitDeadlineExceeded's message). LocalService
  /// waits on its job-table condition variable; RemoteService sends
  /// kAwaitJob frames the daemon answers from that same wait, so no
  /// implementation polls JobStatus.
  virtual Result<JobInfo> AwaitJob(uint64_t job_id, uint64_t timeout_ms) = 0;
};

}  // namespace serve
}  // namespace pmkm

#endif  // PMKM_SERVE_SERVICE_H_
