#include "serve/local_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "obs/json.h"
#include "stream/engine.h"

namespace pmkm {
namespace serve {

LocalService::LocalService(LocalServiceOptions options)
    : options_(std::move(options)) {
  const size_t workers = std::max<size_t>(1, options_.num_workers);
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

LocalService::~LocalService() { Shutdown(); }

Result<uint64_t> LocalService::SubmitJob(const JobSpec& spec) {
  // Validate outside the lock: a bad spec never consumes a job id.
  {
    Result<EngineOptions> validated = spec.ToEngineOptions();
    if (!validated.ok()) return validated.error();
  }
  if (spec.bucket_paths.empty()) {
    return Status::InvalidArgument("job spec has no bucket paths");
  }
  MutexLock lock(mu_);
  if (draining_ || stopping_) {
    return Status::FailedPrecondition(
        "service is draining and not accepting new jobs");
  }
  if (queue_.size() >= options_.max_queued_jobs) {
    return Status::FailedPrecondition(
        "admission queue full (" + std::to_string(queue_.size()) + "/" +
        std::to_string(options_.max_queued_jobs) + " queued jobs)");
  }
  if (options_.max_jobs_per_client > 0 &&
      LiveJobsForClientLocked(spec.client) >= options_.max_jobs_per_client) {
    return Status::FailedPrecondition(
        "client '" + spec.client + "' is at its cap of " +
        std::to_string(options_.max_jobs_per_client) + " live jobs");
  }
  const uint64_t job_id = next_job_id_++;
  auto job = std::make_unique<Job>();
  job->spec = spec;
  job->info.job_id = job_id;
  job->info.state = JobState::kQueued;
  job->info.client = spec.client;
  job->info.run_id = spec.run_id;
  jobs_.emplace(job_id, std::move(job));
  queue_.push_back(job_id);
  work_available_.NotifyOne();
  jobs_changed_.NotifyAll();
  return job_id;
}

Result<JobInfo> LocalService::JobStatus(uint64_t job_id) {
  MutexLock lock(mu_);
  Job* job = FindJobLocked(job_id);
  if (job == nullptr) {
    return Status::NotFound("no job with id " + std::to_string(job_id));
  }
  return job->info;
}

Result<std::map<GridCellId, CellClustering>> LocalService::FetchModel(
    uint64_t job_id) {
  MutexLock lock(mu_);
  Job* job = FindJobLocked(job_id);
  if (job == nullptr) {
    return Status::NotFound("no job with id " + std::to_string(job_id));
  }
  switch (job->info.state) {
    case JobState::kDone:
      return job->result.cells;
    case JobState::kFailed:
    case JobState::kCancelled:
      return job->info.status;
    case JobState::kQueued:
    case JobState::kRunning:
      return Status::FailedPrecondition(
          "job " + std::to_string(job_id) + " is still " +
          JobStateToString(job->info.state));
  }
  return Status::Internal("unreachable job state");
}

Status LocalService::CancelJob(uint64_t job_id) {
  MutexLock lock(mu_);
  Job* job = FindJobLocked(job_id);
  if (job == nullptr) {
    return Status::NotFound("no job with id " + std::to_string(job_id));
  }
  if (IsTerminal(job->info.state)) {
    return Status::FailedPrecondition(
        "job " + std::to_string(job_id) + " is already " +
        JobStateToString(job->info.state));
  }
  job->cancel.store(true, std::memory_order_release);
  if (job->info.state == JobState::kQueued) {
    // Never picked up: cancel immediately and take it out of the queue.
    queue_.erase(std::remove(queue_.begin(), queue_.end(), job_id),
                 queue_.end());
    job->info.state = JobState::kCancelled;
    job->info.status = Status::Cancelled("cancelled while queued");
    finished_.push_back(job_id);
    EvictFinishedLocked();
    jobs_changed_.NotifyAll();
  }
  // A running job drains cooperatively; the worker records the terminal
  // state when the engine returns Cancelled.
  return Status::OK();
}

Result<std::vector<JobInfo>> LocalService::ListJobs() {
  MutexLock lock(mu_);
  std::vector<JobInfo> jobs;
  jobs.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) {
    jobs.push_back(job->info);
  }
  // jobs_ is an ordered std::map keyed by id, so the loop above already
  // yields ascending ids — but the ascending-id contract (service.h) must
  // not silently rot if the container is ever swapped for a hash map, so
  // enforce it explicitly rather than inherit it.
  std::sort(jobs.begin(), jobs.end(),
            [](const JobInfo& a, const JobInfo& b) {
              return a.job_id < b.job_id;
            });
  return jobs;
}

Result<JobInfo> LocalService::AwaitJob(uint64_t job_id,
                                       uint64_t timeout_ms) {
  // Every wait here is timed, "forever" (timeout_ms == 0) included: the
  // daemon's session handlers park in this function, and a bounded
  // handler may only block on WaitFor. Forever is a loop of slices.
  constexpr std::chrono::milliseconds kForeverSlice(1000);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  MutexLock lock(mu_);
  while (true) {
    Job* job = FindJobLocked(job_id);
    if (job == nullptr) {
      return Status::NotFound("no job with id " + std::to_string(job_id));
    }
    if (IsTerminal(job->info.state)) return job->info;
    auto wait = kForeverSlice;
    if (timeout_ms != 0) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        return AwaitDeadlineExceeded(job_id, job->info.state, timeout_ms);
      }
      wait = std::chrono::ceil<std::chrono::milliseconds>(deadline - now);
    }
    (void)jobs_changed_.WaitFor(mu_, wait);
  }
}

void LocalService::BeginDrain() {
  MutexLock lock(mu_);
  draining_ = true;
  jobs_changed_.NotifyAll();
}

void LocalService::Drain() {
  MutexLock lock(mu_);
  while (!queue_.empty() || running_ != 0) jobs_changed_.Wait(mu_);
}

void LocalService::Shutdown() {
  {
    MutexLock lock(mu_);
    draining_ = true;
  }
  Drain();
  {
    MutexLock lock(mu_);
    if (stopping_) return;  // second Shutdown (destructor after explicit)
    stopping_ = true;
    work_available_.NotifyAll();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

bool LocalService::draining() const {
  MutexLock lock(mu_);
  return draining_;
}

Result<StreamRunResult> LocalService::RunResult(uint64_t job_id) {
  MutexLock lock(mu_);
  Job* job = FindJobLocked(job_id);
  if (job == nullptr) {
    return Status::NotFound("no job with id " + std::to_string(job_id));
  }
  if (job->info.state != JobState::kDone) {
    return Status::FailedPrecondition(
        "job " + std::to_string(job_id) + " is " +
        JobStateToString(job->info.state) + ", not done");
  }
  return job->result;
}

std::string LocalService::JobsJson() {
  MutexLock lock(mu_);
  JsonValue root = JsonValue::Object();
  root.Set("draining", draining_);
  root.Set("queued", queue_.size());
  root.Set("running", running_);
  // Same explicit ascending-id contract as ListJobs (service.h): /jobz
  // consumers diff scrapes, so the array order must survive any future
  // change to the jobs_ container.
  std::vector<uint64_t> ids;
  ids.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  JsonValue jobs = JsonValue::Array();
  for (const uint64_t id : ids) {
    const std::unique_ptr<Job>& job = jobs_.at(id);
    JsonValue j = JsonValue::Object();
    j.Set("job_id", id);
    j.Set("state", JobStateToString(job->info.state));
    j.Set("client", job->info.client);
    j.Set("run_id", job->info.run_id);
    j.Set("buckets", job->spec.bucket_paths.size());
    if (IsTerminal(job->info.state)) {
      j.Set("status", job->info.status.ToString());
    }
    if (job->info.state == JobState::kDone) {
      j.Set("cells", job->info.cells);
      j.Set("wall_seconds", job->info.wall_seconds);
    }
    jobs.Append(std::move(j));
  }
  root.Set("jobs", std::move(jobs));
  return root.Dump(2) + "\n";
}

void LocalService::WorkerLoop() {
  while (true) {
    Job* job = nullptr;
    {
      MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) work_available_.Wait(mu_);
      if (queue_.empty()) return;  // stopping_, nothing left to run
      const uint64_t job_id = queue_.front();
      queue_.pop_front();
      job = FindJobLocked(job_id);
      if (job == nullptr || job->info.state != JobState::kQueued) {
        continue;  // cancelled-while-queued raced the pop
      }
      job->info.state = JobState::kRunning;
      ++running_;
      jobs_changed_.NotifyAll();
    }
    RunJob(job);
    {
      MutexLock lock(mu_);
      --running_;
      finished_.push_back(job->info.job_id);
      EvictFinishedLocked();
      jobs_changed_.NotifyAll();
    }
  }
}

void LocalService::RunJob(Job* job) {
  // The spec was validated at admission; a failure here (e.g. a kernel
  // that disappeared) is just a failed job, not a crash.
  Result<EngineOptions> options_or = job->spec.ToEngineOptions();
  if (!options_or.ok()) {
    MutexLock lock(mu_);
    job->info.state = JobState::kFailed;
    job->info.status = options_or.error();
    return;
  }
  EngineOptions options = std::move(options_or).value();

  // Clamp the job's resource asks into the service budget: N tenants in
  // one process must not each claim the whole machine.
  const ResourceModel& budget = options_.budget;
  if (budget.memory_bytes_per_operator > 0) {
    options.resources.memory_bytes_per_operator =
        std::min(options.resources.memory_bytes_per_operator,
                 budget.memory_bytes_per_operator);
  }
  if (budget.cores > 0) {
    options.resources.cores =
        options.resources.cores == 0
            ? budget.cores
            : std::min(options.resources.cores, budget.cores);
  }

  PipelineBuilder builder(std::move(options));
  builder.WithCancelToken(&job->cancel);
  if (!job->spec.run_id.empty()) builder.WithRunId(job->spec.run_id);
  if (options_.debug_server != nullptr) {
    builder.WithDebugServer(options_.debug_server);
  }
  if (options_.metrics != nullptr) builder.WithMetrics(options_.metrics);
  if (options_.trace != nullptr) builder.WithTrace(options_.trace);

  Result<StreamRunResult> result = builder.Run(job->spec.bucket_paths);

  MutexLock lock(mu_);
  if (result.ok()) {
    job->result = std::move(result).value();
    job->info.state = JobState::kDone;
    job->info.status = Status::OK();
    job->info.run_id = job->result.run_id;
    job->info.cells = job->result.cells.size();
    job->info.wall_seconds = job->result.wall_seconds;
  } else if (result.error().IsCancelled()) {
    job->info.state = JobState::kCancelled;
    job->info.status = result.error();
  } else {
    job->info.state = JobState::kFailed;
    job->info.status = result.error();
  }
}

LocalService::Job* LocalService::FindJobLocked(uint64_t job_id) {
  auto it = jobs_.find(job_id);
  return it == jobs_.end() ? nullptr : it->second.get();
}

void LocalService::EvictFinishedLocked() {
  while (finished_.size() > options_.finished_retention) {
    jobs_.erase(finished_.front());
    finished_.pop_front();
  }
}

size_t LocalService::LiveJobsForClientLocked(const std::string& client) {
  size_t live = 0;
  for (const auto& [id, job] : jobs_) {
    if (job->info.client == client && !IsTerminal(job->info.state)) {
      ++live;
    }
  }
  return live;
}

}  // namespace serve
}  // namespace pmkm
