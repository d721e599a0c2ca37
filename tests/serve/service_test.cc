// ClusterService end to end: LocalService job lifecycle, admission
// control and graceful drain, and RemoteService against a live
// ServeDaemon on a unix socket — including the headline guarantee that
// local and remote execution of the same spec produce byte-identical
// models, and the server-side await (kAwaitJob) that replaced polling.

#include "serve/service.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "data/generator.h"
#include "data/io.h"
#include "obs/json.h"
#include "serve/daemon.h"
#include "serve/local_service.h"
#include "serve/protocol.h"
#include "serve/remote_service.h"

namespace pmkm {
namespace serve {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pmkm_service_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Writes a deterministic bucket file and returns its path.
  std::string WriteBucket(int id, size_t points, uint64_t seed) {
    Rng rng(seed);
    GridBucket bucket;
    bucket.cell = GridCellId{id, id};
    bucket.points = GenerateMisrLikeCell(points, &rng);
    const std::string path =
        (dir_ / ("cell" + std::to_string(id) + ".pmkb")).string();
    EXPECT_TRUE(WriteGridBucket(path, bucket).ok());
    return path;
  }

  /// A small, fast, fully deterministic job over `paths`.
  JobSpec MakeSpec(std::vector<std::string> paths,
                   const std::string& client = "") {
    JobSpec spec;
    spec.bucket_paths = std::move(paths);
    spec.engine.k = 4;
    spec.engine.restarts = 2;
    spec.engine.memory_kib = 64;
    spec.engine.cores = 2;
    spec.engine.kernel = "scalar";
    spec.client = client;
    return spec;
  }

  /// A FIFO with no writer: the worker that picks this "bucket" up blocks
  /// opening it, deterministically pinning the worker until
  /// ReleaseFifo(). The job then fails on the empty read — which is fine;
  /// these jobs exist only to occupy workers.
  std::string MakeBlockingFifo() {
    const std::string path = (dir_ / "block.fifo").string();
    EXPECT_EQ(::mkfifo(path.c_str(), 0600), 0);
    return path;
  }

  void ReleaseFifo(const std::string& path) {
    const int fd = ::open(path.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    ::close(fd);  // reader sees EOF; the blocked job fails and finishes
  }

  /// Starts a daemon on a unix socket in the test directory.
  void StartDaemon(ServeDaemon* daemon, size_t workers = 2) {
    DaemonOptions options;
    options.endpoint = "unix:" + (dir_ / "serve.sock").string();
    options.service.num_workers = workers;
    ASSERT_TRUE(daemon->Start(options).ok());
  }

  std::filesystem::path dir_;
};

/// Counts JobStatus calls, the way the benchmark's client does: an await
/// built on status polling would show up here.
class CountingRemote : public RemoteService {
 public:
  Result<JobInfo> JobStatus(uint64_t job_id) override {
    status_calls.fetch_add(1);
    return RemoteService::JobStatus(job_id);
  }
  std::atomic<int> status_calls{0};
};

using Clock = std::chrono::steady_clock;

int64_t MillisSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               start)
      .count();
}

TEST_F(ServiceTest, LocalRunsJobToDone) {
  LocalService service(LocalServiceOptions{});
  const JobSpec spec =
      MakeSpec({WriteBucket(1, 600, 2), WriteBucket(2, 400, 3)});

  auto job_id = service.SubmitJob(spec);
  ASSERT_TRUE(job_id.ok()) << job_id.status();

  auto info = service.AwaitJob(job_id.value(), 120000);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->state, JobState::kDone);
  EXPECT_TRUE(info->status.ok());
  EXPECT_EQ(info->cells, 2u);
  EXPECT_FALSE(info->run_id.empty());  // generated when the spec had none
  EXPECT_GE(info->wall_seconds, 0.0);

  auto cells = service.FetchModel(job_id.value());
  ASSERT_TRUE(cells.ok()) << cells.status();
  EXPECT_EQ(cells->size(), 2u);
  EXPECT_GT(cells->at(GridCellId{1, 1}).model.centroids.size(), 0u);

  auto jobs = service.ListJobs();
  ASSERT_TRUE(jobs.ok());
  ASSERT_EQ(jobs->size(), 1u);
  EXPECT_EQ(jobs->front().job_id, job_id.value());

  EXPECT_NE(service.JobsJson().find("\"done\""), std::string::npos);
}

TEST_F(ServiceTest, LocalRejectsInvalidSpecs) {
  LocalService service(LocalServiceOptions{});
  JobSpec bad_k = MakeSpec({WriteBucket(1, 100, 2)});
  bad_k.engine.k = 0;
  EXPECT_TRUE(service.SubmitJob(bad_k).status().IsInvalidArgument());
  JobSpec bad_retries = MakeSpec({WriteBucket(1, 100, 2)});
  bad_retries.engine.max_retries = -1;
  EXPECT_TRUE(
      service.SubmitJob(bad_retries).status().IsInvalidArgument());
  JobSpec bad_deadline = MakeSpec({WriteBucket(1, 100, 2)});
  bad_deadline.engine.deadline_ms = -1;
  EXPECT_TRUE(
      service.SubmitJob(bad_deadline).status().IsInvalidArgument());

  EXPECT_TRUE(
      service.SubmitJob(MakeSpec({})).status().IsInvalidArgument());
}

TEST_F(ServiceTest, LocalUnknownIdsAreNotFound) {
  LocalService service(LocalServiceOptions{});
  EXPECT_TRUE(service.JobStatus(404).status().IsNotFound());
  EXPECT_TRUE(service.FetchModel(404).status().IsNotFound());
  EXPECT_TRUE(service.CancelJob(404).IsNotFound());
  EXPECT_TRUE(service.AwaitJob(404, 100).status().IsNotFound());
}

TEST_F(ServiceTest, LocalQueueFullRejectsBeforeConsumingAnId) {
  LocalServiceOptions options;
  options.max_queued_jobs = 0;  // every submit finds the queue "full"
  LocalService service(options);
  auto rejected = service.SubmitJob(MakeSpec({WriteBucket(1, 100, 2)}));
  EXPECT_TRUE(rejected.status().IsFailedPrecondition());
  // The rejected submit consumed nothing: the job table stays empty.
  auto jobs = service.ListJobs();
  ASSERT_TRUE(jobs.ok());
  EXPECT_TRUE(jobs->empty());
}

TEST_F(ServiceTest, LocalPerClientCapAndQueuedCancel) {
  LocalServiceOptions options;
  options.num_workers = 1;
  options.max_jobs_per_client = 1;
  LocalService service(options);

  // Pin the single worker on a FIFO so later jobs stay deterministically
  // queued.
  const std::string fifo = MakeBlockingFifo();
  auto blocked = service.SubmitJob(MakeSpec({fifo}, "alice"));
  ASSERT_TRUE(blocked.ok()) << blocked.status();

  // alice is at her cap of 1 live job; bob is not affected.
  EXPECT_TRUE(service.SubmitJob(MakeSpec({fifo}, "alice"))
                  .status()
                  .IsFailedPrecondition());
  auto queued = service.SubmitJob(MakeSpec({fifo}, "bob"));
  ASSERT_TRUE(queued.ok()) << queued.status();

  // bob's job cannot start (worker busy): AwaitJob times out...
  EXPECT_TRUE(service.AwaitJob(queued.value(), 50)
                  .status()
                  .IsDeadlineExceeded());
  // ...and FetchModel refuses while non-terminal.
  EXPECT_TRUE(service.FetchModel(queued.value())
                  .status()
                  .IsFailedPrecondition());

  // Cancelling the queued job is immediate and terminal.
  ASSERT_TRUE(service.CancelJob(queued.value()).ok());
  auto info = service.JobStatus(queued.value());
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->state, JobState::kCancelled);
  EXPECT_TRUE(info->status.IsCancelled());
  EXPECT_TRUE(service.FetchModel(queued.value()).status().IsCancelled());
  // A second cancel of a terminal job is refused.
  EXPECT_TRUE(service.CancelJob(queued.value()).IsFailedPrecondition());

  // With bob's job cancelled, alice's cap is the only live job; bob can
  // submit again... but first release the worker so teardown can drain.
  ReleaseFifo(fifo);
  auto final_info = service.AwaitJob(blocked.value(), 120000);
  ASSERT_TRUE(final_info.ok()) << final_info.status();
  EXPECT_EQ(final_info->state, JobState::kFailed);
  EXPECT_FALSE(final_info->status.ok());
}

// CancelJob on a running job stops it within one chunk: the job ends
// kCancelled, not kDone after the rest of its bucket.
TEST_F(ServiceTest, LocalCancelStopsARunningJobWithinOneChunk) {
  // One clone, every chunk fit stalled 50 ms: a 500-point bucket in
  // 10-point chunks (memory_kib=2) takes 2.5 s to finish uncancelled.
  FaultRegistry::Global().Reset();
  FaultSpec stall;
  stall.nth = 1;
  stall.permanent = true;
  stall.stall_ms = 50;
  FaultRegistry::Global().Arm("op.stall", stall);
  LocalService service(LocalServiceOptions{});
  JobSpec spec = MakeSpec({WriteBucket(1, 500, 4)});
  spec.engine.memory_kib = 2;
  spec.engine.cores = 1;
  auto job_id = service.SubmitJob(spec);
  ASSERT_TRUE(job_id.ok()) << job_id.status();

  const Clock::time_point start = Clock::now();
  while (FaultRegistry::Global().hits("op.stall") < 2 &&
         MillisSince(start) < 60000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const uint64_t fits_at_cancel = FaultRegistry::Global().hits("op.stall");
  ASSERT_GE(fits_at_cancel, 2u);
  ASSERT_TRUE(service.CancelJob(job_id.value()).ok());
  auto info = service.AwaitJob(job_id.value(), 120000);
  const uint64_t fits_total = FaultRegistry::Global().hits("op.stall");
  FaultRegistry::Global().Reset();
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->state, JobState::kCancelled);
  EXPECT_TRUE(info->status.IsCancelled()) << info->status;
  EXPECT_LE(fits_total, fits_at_cancel + 1);
}

// Every chunk fit of a job stalls 50 ms.
FaultSpec EveryFitStalls50Ms() {
  FaultSpec stall;
  stall.nth = 1;
  stall.permanent = true;
  stall.stall_ms = 50;
  return stall;
}

// A job's deadline bounds its whole run, not a stall: every chunk fit
// below takes 50 ms, so the job keeps making progress for 2.5 s, and its
// 300 ms deadline ends it kFailed with DeadlineExceeded.
TEST_F(ServiceTest, LocalDeadlineFailsAProgressingJob) {
  FaultRegistry::Global().Reset();
  FaultRegistry::Global().Arm("op.stall", EveryFitStalls50Ms());
  LocalService service(LocalServiceOptions{});
  JobSpec spec = MakeSpec({WriteBucket(1, 500, 4)});
  spec.engine.memory_kib = 2;  // 10-point chunks: 50 fits of 50 ms
  spec.engine.cores = 1;
  spec.engine.deadline_ms = 300;
  auto job_id = service.SubmitJob(spec);
  ASSERT_TRUE(job_id.ok()) << job_id.status();
  auto info = service.AwaitJob(job_id.value(), 120000);
  FaultRegistry::Global().Reset();
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->state, JobState::kFailed);
  EXPECT_TRUE(info->status.IsDeadlineExceeded()) << info->status;
  EXPECT_NE(info->status.message().find("deadline of 300 ms"),
            std::string::npos)
      << info->status;
}

TEST_F(ServiceTest, LocalDrainKeepsAcceptedJobsAndRejectsNew) {
  LocalService service(LocalServiceOptions{});
  const std::string path = WriteBucket(1, 500, 4);
  auto accepted = service.SubmitJob(MakeSpec({path}));
  ASSERT_TRUE(accepted.ok()) << accepted.status();

  service.BeginDrain();
  auto jobs = JsonValue::Parse(service.JobsJson());
  ASSERT_TRUE(jobs.ok()) << jobs.status();
  EXPECT_TRUE(jobs->Find("draining")->AsBool());
  // New work is refused...
  EXPECT_TRUE(
      service.SubmitJob(MakeSpec({path})).status().IsFailedPrecondition());
  // ...but the accepted job is never lost: drain completes it.
  service.Drain();
  auto info = service.JobStatus(accepted.value());
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->state, JobState::kDone);
  auto cells = service.FetchModel(accepted.value());
  ASSERT_TRUE(cells.ok()) << cells.status();
  EXPECT_EQ(cells->size(), 1u);
}

TEST_F(ServiceTest, ListJobsIsAscendingUnderAdversarialCompletionOrder) {
  // ListJobs and /jobz promise strictly ascending job_id order
  // (service.h) no matter in what order jobs reach terminal states.
  // Pin the single worker, queue five more jobs, then terminalize the
  // queued ones in a deliberately scrambled order via CancelJob.
  LocalServiceOptions options;
  options.num_workers = 1;
  LocalService service(options);
  const std::string fifo = MakeBlockingFifo();

  auto blocker = service.SubmitJob(MakeSpec({fifo}, "pin"));
  ASSERT_TRUE(blocker.ok()) << blocker.status();
  std::vector<uint64_t> queued;
  for (int i = 0; i < 5; ++i) {
    auto id = service.SubmitJob(
        MakeSpec({fifo}, "client" + std::to_string(i)));
    ASSERT_TRUE(id.ok()) << id.status();
    queued.push_back(id.value());
  }
  // Adversarial terminal order: 3rd, 1st, 5th, 2nd, 4th.
  for (const int idx : {2, 0, 4, 1, 3}) {
    ASSERT_TRUE(service.CancelJob(queued[idx]).ok());
  }
  ReleaseFifo(fifo);
  auto final_info = service.AwaitJob(blocker.value(), 120000);
  ASSERT_TRUE(final_info.ok()) << final_info.status();

  auto jobs = service.ListJobs();
  ASSERT_TRUE(jobs.ok());
  ASSERT_EQ(jobs->size(), 6u);
  for (size_t i = 1; i < jobs->size(); ++i) {
    EXPECT_LT(jobs->at(i - 1).job_id, jobs->at(i).job_id)
        << "ListJobs not strictly ascending at index " << i;
  }

  // /jobz emits the same ascending order: pull the "job_id" values out
  // of the JSON in document order.
  const std::string json = service.JobsJson();
  std::vector<uint64_t> jobz_ids;
  size_t pos = 0;
  while ((pos = json.find("\"job_id\"", pos)) != std::string::npos) {
    pos = json.find(':', pos);
    ASSERT_NE(pos, std::string::npos);
    jobz_ids.push_back(std::stoull(json.substr(pos + 1)));
  }
  ASSERT_EQ(jobz_ids.size(), 6u);
  for (size_t i = 1; i < jobz_ids.size(); ++i) {
    EXPECT_LT(jobz_ids[i - 1], jobz_ids[i])
        << "/jobz not strictly ascending at index " << i;
  }
}

TEST_F(ServiceTest, RemoteMatchesLocalByteForByte) {
  const std::vector<std::string> paths = {WriteBucket(1, 600, 2),
                                          WriteBucket(2, 400, 3)};
  const JobSpec spec = MakeSpec(paths, "ci");

  // Reference: the same spec through an embedded LocalService.
  std::map<GridCellId, CellClustering> local_cells;
  {
    LocalService local(LocalServiceOptions{});
    auto job_id = local.SubmitJob(spec);
    ASSERT_TRUE(job_id.ok()) << job_id.status();
    ASSERT_TRUE(local.AwaitJob(job_id.value(), 120000).ok());
    auto cells = local.FetchModel(job_id.value());
    ASSERT_TRUE(cells.ok()) << cells.status();
    local_cells = std::move(cells).value();
  }

  // Same spec through a daemon over a unix socket.
  ServeDaemon daemon;
  StartDaemon(&daemon);

  RemoteService remote;
  ASSERT_TRUE(remote.Connect(daemon.bound_endpoint()).ok());
  EXPECT_EQ(remote.negotiated_version(), kProtocolVersion);
  EXPECT_TRUE(remote.Ping().ok());

  auto job_id = remote.SubmitJob(spec);
  ASSERT_TRUE(job_id.ok()) << job_id.status();
  auto info = remote.AwaitJob(job_id.value(), 120000);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->state, JobState::kDone);
  EXPECT_EQ(info->client, "ci");
  auto remote_cells = remote.FetchModel(job_id.value());
  ASSERT_TRUE(remote_cells.ok()) << remote_cells.status();

  // The headline acceptance guarantee: identical bytes, not "close".
  // merge_seconds is wall-clock and legitimately differs between runs;
  // zero it on both sides so the comparison covers every model byte.
  auto strip_timing = [](std::map<GridCellId, CellClustering> cells) {
    for (auto& [id, cell] : cells) cell.merge_seconds = 0.0;
    return cells;
  };
  EXPECT_EQ(EncodeModelSet(strip_timing(local_cells)),
            EncodeModelSet(strip_timing(remote_cells.value())));

  auto listed = remote.ListJobs();
  ASSERT_TRUE(listed.ok()) << listed.status();
  ASSERT_EQ(listed->size(), 1u);
  EXPECT_EQ(listed->front().job_id, job_id.value());

  // Daemon-side drain: admission stops, results stay fetchable.
  daemon.BeginDrain();
  EXPECT_TRUE(remote.SubmitJob(spec).status().IsFailedPrecondition());
  EXPECT_TRUE(remote.FetchModel(job_id.value()).ok());

  remote.Disconnect();
  daemon.DrainAndStop();
}

TEST_F(ServiceTest, RemoteErrorSemanticsMatchLocal) {
  ServeDaemon daemon;
  StartDaemon(&daemon);

  RemoteService remote;
  ASSERT_TRUE(remote.Connect(daemon.bound_endpoint()).ok());

  // Status objects survive the wire: same code, same category.
  EXPECT_TRUE(remote.JobStatus(404).status().IsNotFound());
  EXPECT_TRUE(remote.FetchModel(404).status().IsNotFound());
  EXPECT_TRUE(remote.CancelJob(404).IsNotFound());
  EXPECT_TRUE(remote.AwaitJob(404, 100).status().IsNotFound());

  JobSpec bad = MakeSpec({"/nonexistent.pmkb"});
  bad.engine.k = 0;
  EXPECT_TRUE(remote.SubmitJob(bad).status().IsInvalidArgument());
  JobSpec bad_retries = MakeSpec({"/nonexistent.pmkb"});
  bad_retries.engine.max_retries = -1;
  EXPECT_TRUE(remote.SubmitJob(bad_retries).status().IsInvalidArgument());

  remote.Disconnect();
  daemon.Stop();
}

// The deadline travels in the JobSpec and its DeadlineExceeded travels
// back: the daemon's job ends kFailed, and the client sees the code.
TEST_F(ServiceTest, RemoteDeadlineFailsAProgressingJob) {
  ServeDaemon daemon;
  StartDaemon(&daemon);
  RemoteService remote;
  ASSERT_TRUE(remote.Connect(daemon.bound_endpoint()).ok());

  FaultRegistry::Global().Reset();
  FaultRegistry::Global().Arm("op.stall", EveryFitStalls50Ms());
  JobSpec spec = MakeSpec({WriteBucket(1, 500, 4)});
  spec.engine.memory_kib = 2;  // 10-point chunks: 50 fits of 50 ms
  spec.engine.cores = 1;
  spec.engine.deadline_ms = 300;
  auto job_id = remote.SubmitJob(spec);
  ASSERT_TRUE(job_id.ok()) << job_id.status();
  auto info = remote.AwaitJob(job_id.value(), 120000);
  FaultRegistry::Global().Reset();
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->state, JobState::kFailed);
  EXPECT_TRUE(info->status.IsDeadlineExceeded()) << info->status;
  EXPECT_NE(info->status.message().find("deadline of 300 ms"),
            std::string::npos)
      << info->status;

  JobSpec bad_deadline = MakeSpec({"/nonexistent.pmkb"});
  bad_deadline.engine.deadline_ms = -1;
  EXPECT_TRUE(remote.SubmitJob(bad_deadline).status().IsInvalidArgument());

  remote.Disconnect();
  daemon.DrainAndStop();
}

TEST_F(ServiceTest, RemoteRejectsCheckpointDirAndWritesNothing) {
  ServeDaemon daemon;
  StartDaemon(&daemon);

  RemoteService remote;
  ASSERT_TRUE(remote.Connect(daemon.bound_endpoint()).ok());

  const std::filesystem::path evil = dir_ / "evil";
  JobSpec spec = MakeSpec({WriteBucket(1, 400, 2)});
  spec.engine.checkpoint_dir = evil.string();
  auto job_id = remote.SubmitJob(spec);
  EXPECT_TRUE(job_id.status().IsInvalidArgument()) << job_id.status();
  // A wrongly accepted job would create the directory when it runs.
  if (job_id.ok()) (void)remote.AwaitJob(job_id.value(), 120000);
  EXPECT_FALSE(std::filesystem::exists(evil));

  remote.Disconnect();
  daemon.Stop();
}

TEST_F(ServiceTest, RemoteAwaitSendsNoStatusFrames) {
  ServeDaemon daemon;
  StartDaemon(&daemon);
  CountingRemote remote;
  ASSERT_TRUE(remote.Connect(daemon.bound_endpoint()).ok());
  EXPECT_EQ(remote.negotiated_version(), 5u);

  auto job_id = remote.SubmitJob(MakeSpec({WriteBucket(1, 600, 2)}));
  ASSERT_TRUE(job_id.ok()) << job_id.status();
  auto info = remote.AwaitJob(job_id.value(), 120000);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->state, JobState::kDone);
  // An already-terminal job answers at once, too.
  auto again = remote.AwaitJob(job_id.value(), 0);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->state, JobState::kDone);
  EXPECT_EQ(remote.status_calls.load(), 0);

  remote.Disconnect();
  daemon.DrainAndStop();
}

TEST_F(ServiceTest, RemoteAwaitOnPinnedJobHitsTheCallersDeadline) {
  ServeDaemon daemon;
  StartDaemon(&daemon, /*workers=*/1);
  const std::string fifo = MakeBlockingFifo();
  CountingRemote remote;
  ASSERT_TRUE(remote.Connect(daemon.bound_endpoint()).ok());
  auto pinned = remote.SubmitJob(MakeSpec({fifo}));
  ASSERT_TRUE(pinned.ok()) << pinned.status();

  // A short timeout, then one longer than a server slice: the client
  // must loop kAwaitJob slices and still stop at its own deadline, with
  // LocalService's message.
  for (const uint64_t timeout_ms : {uint64_t{50}, kMaxAwaitSliceMs + 300}) {
    const auto start = Clock::now();
    auto info = remote.AwaitJob(pinned.value(), timeout_ms);
    const int64_t elapsed_ms = MillisSince(start);
    ASSERT_TRUE(info.status().IsDeadlineExceeded()) << info.status();
    EXPECT_GE(elapsed_ms, static_cast<int64_t>(timeout_ms));
    EXPECT_LT(elapsed_ms, static_cast<int64_t>(timeout_ms) + 1000);
    const std::string message = info.status().message();
    EXPECT_TRUE(
        message ==
            AwaitDeadlineExceeded(pinned.value(), JobState::kQueued,
                                  timeout_ms).message() ||
        message ==
            AwaitDeadlineExceeded(pinned.value(), JobState::kRunning,
                                  timeout_ms).message())
        << message;
  }
  EXPECT_EQ(remote.status_calls.load(), 0);

  ReleaseFifo(fifo);
  auto final_info = remote.AwaitJob(pinned.value(), 120000);
  ASSERT_TRUE(final_info.ok()) << final_info.status();
  EXPECT_EQ(final_info->state, JobState::kFailed);
  remote.Disconnect();
  daemon.DrainAndStop();
}

TEST_F(ServiceTest, RemoteCancelOnSecondConnectionReleasesParkedAwait) {
  ServeDaemon daemon;
  StartDaemon(&daemon, /*workers=*/1);
  const std::string fifo = MakeBlockingFifo();
  RemoteService waiter;
  RemoteService canceller;
  ASSERT_TRUE(waiter.Connect(daemon.bound_endpoint()).ok());
  ASSERT_TRUE(canceller.Connect(daemon.bound_endpoint()).ok());
  auto pinned = canceller.SubmitJob(MakeSpec({fifo}));
  ASSERT_TRUE(pinned.ok()) << pinned.status();
  auto queued = canceller.SubmitJob(MakeSpec({WriteBucket(1, 200, 2)}));
  ASSERT_TRUE(queued.ok()) << queued.status();

  Result<JobInfo> awaited = Status::Internal("not awaited");
  std::thread await_thread(
      [&] { awaited = waiter.AwaitJob(queued.value(), 60000); });
  // Let the await park in the daemon, then cancel from the other session.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto cancelled_at = Clock::now();
  ASSERT_TRUE(canceller.CancelJob(queued.value()).ok());
  await_thread.join();
  // Released by the job's transition, not by the slice running out.
  EXPECT_LT(MillisSince(cancelled_at),
            static_cast<int64_t>(kMaxAwaitSliceMs));
  ASSERT_TRUE(awaited.ok()) << awaited.status();
  EXPECT_EQ(awaited->state, JobState::kCancelled);
  EXPECT_TRUE(awaited->status.IsCancelled());

  ReleaseFifo(fifo);
  ASSERT_TRUE(waiter.AwaitJob(pinned.value(), 120000).ok());
  waiter.Disconnect();
  canceller.Disconnect();
  daemon.DrainAndStop();
}

TEST_F(ServiceTest, StopEndsAParkedRemoteAwaitAfterItsSlice) {
  ServeDaemon daemon;
  StartDaemon(&daemon, /*workers=*/1);
  const std::string fifo = MakeBlockingFifo();
  RemoteService remote;
  ASSERT_TRUE(remote.Connect(daemon.bound_endpoint()).ok());
  auto pinned = remote.SubmitJob(MakeSpec({fifo}));
  ASSERT_TRUE(pinned.ok()) << pinned.status();

  Result<JobInfo> awaited = Status::Internal("not awaited");
  std::atomic<bool> returned{false};
  std::thread await_thread([&] {
    awaited = remote.AwaitJob(pinned.value(), 0);
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto stop_at = Clock::now();
  std::thread stop_thread([&] { daemon.Stop(); });
  // The parked handler answers when its slice ends and hangs up, so the
  // forever-await returns instead of re-issuing slices. Bounded wait, so
  // a regression fails here instead of hanging the test.
  const int64_t limit_ms = static_cast<int64_t>(kMaxAwaitSliceMs) + 1000;
  while (!returned.load() && MillisSince(stop_at) < 5 * limit_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(returned.load());
  EXPECT_LT(MillisSince(stop_at), limit_ms);
  // Stop() then only waits for the pinned job (LocalService::Shutdown
  // drains accepted jobs); release it so Stop() can return.
  ReleaseFifo(fifo);
  await_thread.join();
  EXPECT_TRUE(awaited.status().IsFailedPrecondition()) << awaited.status();
  EXPECT_FALSE(remote.Ping().ok());  // the daemon hung up
  remote.Disconnect();
  stop_thread.join();
}

TEST_F(ServiceTest, RemoteFailsFastWhenNotConnected) {
  RemoteService remote;
  EXPECT_EQ(remote.negotiated_version(), 0u);
  EXPECT_TRUE(remote.Ping().IsFailedPrecondition());
  EXPECT_TRUE(remote.SubmitJob(MakeSpec({"x"}))
                  .status()
                  .IsFailedPrecondition());
  // Connecting to a dead endpoint fails cleanly, not hangs.
  EXPECT_FALSE(
      remote.Connect("unix:" + (dir_ / "nothing.sock").string()).ok());
}

}  // namespace
}  // namespace serve
}  // namespace pmkm
