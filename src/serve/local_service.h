// LocalService: the in-process ClusterService. Jobs land in a bounded
// admission queue, a small worker pool drains it, and each job runs the
// engine through PipelineBuilder under its own FailurePolicy supervision
// and cancel token. It is the execution core the pmkm_serve daemon hosts;
// a tool that runs one job in-process calls PipelineBuilder directly.
//
// Admission control happens at SubmitJob: a full queue or a client over
// its per-client cap is rejected with FailedPrecondition *before* the job
// exists, so a rejected submit never consumes a job id or memory. The
// requested memory/core budgets are clamped into the service's own
// ResourceModel, which is what keeps N concurrent jobs inside one
// process's budget.
//
// Graceful drain (SIGTERM path): BeginDrain() atomically stops admission
// — every later SubmitJob is rejected — while queued and running jobs
// keep executing; Drain() blocks until the last accepted job reaches a
// terminal state. An accepted job is therefore never lost to a shutdown,
// which the serve-smoke CI job verifies end to end.

#ifndef PMKM_SERVE_LOCAL_SERVICE_H_
#define PMKM_SERVE_LOCAL_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "serve/service.h"
#include "stream/plan.h"

namespace pmkm {

namespace obs {
class DebugServer;
}  // namespace obs

namespace serve {

struct LocalServiceOptions {
  /// Concurrent jobs (worker threads). Each job internally parallelizes
  /// per its plan, so a small number is usually right.
  size_t num_workers = 2;

  /// Admission bound: jobs waiting for a worker. Submits beyond it are
  /// rejected, pushing back-pressure to clients instead of growing an
  /// unbounded queue.
  size_t max_queued_jobs = 16;

  /// Per-client cap on live (queued + running) jobs; 0 disables.
  /// Clients are identified by JobSpec::client ("" = anonymous, which is
  /// capped like any other client).
  size_t max_jobs_per_client = 4;

  /// Finished jobs kept for JobStatus/FetchModel before the oldest is
  /// evicted. Evicted ids answer NotFound.
  size_t finished_retention = 64;

  /// Ceiling on what a job may ask for: per-operator memory and cores
  /// from the spec are clamped to this budget. Zero (the default here,
  /// unlike ResourceModel's own defaults) means no ceiling on that axis.
  ResourceModel budget{0, 0};

  /// Optional live introspection: each running job publishes into this
  /// server's RunBoard (/runz, /statusz). Not owned; must outlive the
  /// service.
  obs::DebugServer* debug_server = nullptr;
};

class LocalService : public ClusterService {
 public:
  explicit LocalService(LocalServiceOptions options);

  /// Drains (keeping accepted jobs, as Shutdown documents) and joins.
  ~LocalService() override;

  LocalService(const LocalService&) = delete;
  LocalService& operator=(const LocalService&) = delete;

  Result<uint64_t> SubmitJob(const JobSpec& spec) override
      PMKM_EXCLUDES(mu_);
  Result<JobInfo> JobStatus(uint64_t job_id) override PMKM_EXCLUDES(mu_);
  Result<std::map<GridCellId, CellClustering>> FetchModel(
      uint64_t job_id) override PMKM_EXCLUDES(mu_);
  Status CancelJob(uint64_t job_id) override PMKM_EXCLUDES(mu_);
  Result<std::vector<JobInfo>> ListJobs() override PMKM_EXCLUDES(mu_);

  /// Timed condition-variable waits on the job table; never untimed, so
  /// the daemon's bounded session handlers can park here.
  Result<JobInfo> AwaitJob(uint64_t job_id, uint64_t timeout_ms) override
      PMKM_EXCLUDES(mu_);

  /// Stops admission permanently. Idempotent; queued/running jobs are
  /// unaffected.
  void BeginDrain() PMKM_EXCLUDES(mu_);

  /// Blocks until no job is queued or running. Call BeginDrain() first
  /// or new submissions can extend the wait indefinitely.
  void Drain() PMKM_EXCLUDES(mu_);

  /// BeginDrain + Drain + join the workers. Called by the destructor.
  void Shutdown() PMKM_EXCLUDES(mu_);

  /// Live job table as JSON (the daemon mounts this at /jobz).
  std::string JobsJson() PMKM_EXCLUDES(mu_);

 private:
  struct Job {
    JobSpec spec;
    JobInfo info;
    /// Cooperative cancel token handed to the engine via WithCancelToken;
    /// stable address because jobs live behind unique_ptr.
    std::atomic<bool> cancel{false};
    /// The run's cells, populated on kDone; FetchModel returns them.
    std::map<GridCellId, CellClustering> cells;
  };

  void WorkerLoop();
  void RunJob(Job* job);
  Job* FindJobLocked(uint64_t job_id) PMKM_REQUIRES(mu_);
  void EvictFinishedLocked() PMKM_REQUIRES(mu_);
  size_t LiveJobsForClientLocked(const std::string& client)
      PMKM_REQUIRES(mu_);

  const LocalServiceOptions options_;

  mutable Mutex mu_;
  CondVar work_available_ PMKM_GUARDED_BY(mu_);
  CondVar jobs_changed_ PMKM_GUARDED_BY(mu_);
  bool draining_ PMKM_GUARDED_BY(mu_) = false;
  bool stopping_ PMKM_GUARDED_BY(mu_) = false;
  uint64_t next_job_id_ PMKM_GUARDED_BY(mu_) = 1;
  std::map<uint64_t, std::unique_ptr<Job>> jobs_ PMKM_GUARDED_BY(mu_);
  std::deque<uint64_t> queue_ PMKM_GUARDED_BY(mu_);
  /// Finished ids in completion order, the eviction ring.
  std::deque<uint64_t> finished_ PMKM_GUARDED_BY(mu_);
  size_t running_ PMKM_GUARDED_BY(mu_) = 0;

  std::vector<std::thread> workers_;
};

}  // namespace serve
}  // namespace pmkm

#endif  // PMKM_SERVE_LOCAL_SERVICE_H_
