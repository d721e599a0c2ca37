// pmkm_bench: the harness behind benchmark/run.py (see README.md). It runs
// one workload per process through the production entry points only:
// PipelineBuilder::Run + SaveModel for batch workloads, and a spawned
// pmkm_serve daemon driven by RemoteService clients for serve workloads.
//
//   pmkm_bench info
//   pmkm_bench gen     --workload=W --seed=N --root=DIR [--smoke]
//   pmkm_bench explain --workload=W --root=DIR [--smoke]
//   pmkm_bench run     --workload=W --root=DIR --out=DIR --seconds=S
//                      --trace=0|1 --serve_bin=PATH [--smoke]
//
// `run` prints one JSON object: raw end-to-end samples (run.py turns them
// into medians and quartiles), per-layer metrics when --trace=1, the
// output checks that ran and every failure they found.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/kernels/kernel.h"
#include "cluster/merge.h"
#include "cluster/metrics.h"
#include "cluster/partial.h"
#include "cluster/serialize.h"
#include "common/flags.h"
#include "common/rng.h"
#include "data/generator.h"
#include "data/io.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/remote_service.h"
#include "stream/checkpoint.h"
#include "stream/engine.h"

namespace pmkm {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

// ---------------------------------------------------------------------------
// Workloads. README.md records why each one exists.

// Bucket files shared by the workloads that read them.
struct InputSet {
  const char* name;
  size_t cells;
  size_t points;  // per cell
};

constexpr InputSet kPaperInputs{"paper", 4, 75000};
constexpr InputSet kCellInputs{"cells", 256, 5000};
constexpr InputSet kPoolInputs{"pool", 32, 10000};

struct Workload {
  const char* name;
  const InputSet* inputs;
  size_t cells;  // the first `cells` buckets of the input set
  int64_t k;
  int64_t restarts;
  int64_t cores;
  bool checkpoint;
  bool serve;
  double jobs_per_s;  // serve: open-loop arrival rate; 0 = closed loop
};

constexpr Workload kWorkloads[] = {
    {"paper_stream", &kPaperInputs, 4, 40, 10, 4, false, false, 0},
    {"paper_1core", &kPaperInputs, 1, 40, 10, 1, false, false, 0},
    {"many_cells_io", &kCellInputs, 256, 4, 1, 4, true, false, 0},
    {"serve_open", &kPoolInputs, 32, 8, 5, 2, false, true, 6.0},
    {"serve_saturate", &kPoolInputs, 32, 8, 5, 2, false, true, 0},
};

// Serve load shape: four client threads, each owning one connection; a
// job clusters two buckets of the pool, so the pool yields 16 distinct
// job specs. The closed loop keeps three jobs in flight per client so the
// daemon's queue never drains while a client waits out a status poll.
constexpr size_t kClients = 4;
constexpr size_t kBucketsPerJob = 2;
constexpr size_t kInFlightPerClient = 3;
constexpr uint64_t kJobTimeoutMs = 60000;
constexpr int kServeWorkers = 2;
constexpr int kServeBudgetCores = 2;

// Untimed warm-up before every measurement: on an idle VM the first runs
// after a pause take up to 4x longer while the host ramps up.
constexpr double kWarmupSeconds = 2.0;
constexpr int kSetupSamples = 5;

// A batch repetition counts as clean when other guests took at most this
// share of the host's CPU time while it ran (see RunBatch).
constexpr double kCleanStealFrac = 0.02;

// --smoke: every workload at about 2% size with one repetition.
constexpr double kSmokeScale = 0.02;

size_t CellsOf(const InputSet& set, bool smoke) {
  return smoke && set.cells > 32 ? 16 : set.cells;
}

size_t PointsOf(const InputSet& set, bool smoke) {
  if (!smoke) return set.points;
  return std::max<size_t>(
      500, static_cast<size_t>(static_cast<double>(set.points) *
                               kSmokeScale));
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// Cell c of every input set sits in a distinct 1° grid cell.
GridCellId CellIdFor(size_t c) {
  return GridCellId{static_cast<int32_t>(c / 360) - 90,
                    static_cast<int32_t>(c % 360) - 180};
}

std::string InputDir(const std::string& root, const InputSet& set) {
  return root + "/" + set.name;
}

// The workload's bucket files in cell order, absolute because the daemon
// opens them too.
std::vector<std::string> BucketPaths(const Workload& w,
                                     const std::string& root, bool smoke) {
  std::vector<std::string> paths;
  const size_t cells = std::min(w.cells, CellsOf(*w.inputs, smoke));
  for (size_t c = 0; c < cells; ++c) {
    paths.push_back(fs::absolute(InputDir(root, *w.inputs) + "/" +
                                 CellIdFor(c).ToString() + ".pmkb")
                        .string());
  }
  return paths;
}

// Engine settings as a user passes them to pmkm_cluster / a JobSpec: the
// default 512 KiB budget, failfast, kernel auto.
EngineFlags FlagsFor(const Workload& w) {
  EngineFlags flags;
  flags.k = w.k;
  flags.restarts = w.restarts;
  flags.cores = w.cores;
  return flags;
}

// The partial operator's seed tag for one partition (stream/ops.cc), so
// the serial replay reproduces the engine's models bit for bit.
uint64_t PartitionTag(GridCellId cell, uint32_t partition_id) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(cell.lat_index))
          << 32) ^
         static_cast<uint32_t>(cell.lon_index) ^
         (static_cast<uint64_t>(partition_id) << 17);
}

// ---------------------------------------------------------------------------
// gen: MISR-like cells. Each cell's mixture (its scene types) is fixed by
// the cell index and the seed draws the points, so seeds vary the sample
// but not how hard the workload is: with a mixture per seed, k-means
// iteration counts and the SSE moved by tens of percent between seeds.
// Files are cached under --root and regenerated when the seed, the size or
// kInputsVersion (bump it whenever this function's output changes) differ.

constexpr int kInputsVersion = 1;

Status Generate(const Workload& w, uint64_t seed, const std::string& root,
                bool smoke) {
  const InputSet& set = *w.inputs;
  const std::string dir = InputDir(root, set);
  const size_t cells = CellsOf(set, smoke);
  const size_t points = PointsOf(set, smoke);
  const std::string stamp =
      "v" + std::to_string(kInputsVersion) + " " + std::to_string(seed) +
      " " + std::to_string(cells) + " " + std::to_string(points);
  const std::string marker = dir + "/complete";
  {
    std::ifstream in(marker);
    std::string existing;
    if (in && std::getline(in, existing) && existing == stamp) {
      return Status::OK();
    }
  }
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (size_t c = 0; c < cells; ++c) {
    Rng mixture_rng(c);
    Rng sample_rng(seed * 0x9e3779b97f4a7c15ULL + c);
    GridBucket bucket{CellIdFor(c),
                      MakeMisrLikeCell(MisrCellSpec{}, &mixture_rng)
                          .Sample(points, &sample_rng)};
    PMKM_RETURN_NOT_OK(WriteGridBucket(
        dir + "/" + bucket.cell.ToString() + ".pmkb", bucket));
  }
  std::ofstream out(marker, std::ios::trunc);
  out << stamp << "\n";
  return out.good() ? Status::OK()
                    : Status::IOError("cannot write " + marker);
}

// ---------------------------------------------------------------------------
// Child processes. Every child gets PR_SET_PDEATHSIG so it cannot outlive
// this process, and is always reaped.

pid_t Spawn(const std::vector<std::string>& argv, int stdout_fd,
            int stderr_fd) {
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    if (stdout_fd >= 0) dup2(stdout_fd, STDOUT_FILENO);
    if (stderr_fd >= 0) dup2(stderr_fd, STDERR_FILENO);
    execv(args[0], args.data());
    _exit(127);
  }
  return pid;
}

// Waits for `pid` and returns its exit code (128 + signal if killed). A
// hung child is bounded by run.py's timeout, whose kill reaches it through
// the death signal.
Result<int> Reap(pid_t pid) {
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return Status::IOError("waitpid failed");
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

// A pmkm_serve daemon on an ephemeral loopback port. The endpoint is read
// from its "listening on <endpoint>" line; its stderr goes to a log file.
class ServeProcess {
 public:
  ServeProcess() = default;
  ~ServeProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) close(out_fd_);
  }
  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  Status Start(const std::string& bin, const std::string& log_path) {
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) return Status::IOError("pipe failed");
    const int log_fd =
        open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
             0644);
    pid_ = Spawn({bin, "--endpoint=127.0.0.1:0",
                  "--workers=" + std::to_string(kServeWorkers),
                  "--budget_cores=" + std::to_string(kServeBudgetCores),
                  "--max_jobs_per_client=0", "--max_queued_jobs=64"},
                 fds[1], log_fd);
    close(fds[1]);
    if (log_fd >= 0) close(log_fd);
    out_fd_ = fds[0];
    if (pid_ < 0) return Status::IOError("fork failed");
    std::string text;
    const auto start = Clock::now();
    const std::string key = "listening on ";
    for (;;) {
      const size_t at = text.find(key);
      const size_t eol = at == std::string::npos ? at : text.find('\n', at);
      if (eol != std::string::npos) {
        endpoint_ = text.substr(at + key.size(), eol - at - key.size());
        return Status::OK();
      }
      const double left_ms = 10000.0 - SecondsSince(start) * 1e3;
      pollfd p{out_fd_, POLLIN, 0};
      if (left_ms <= 0 || poll(&p, 1, static_cast<int>(left_ms)) <= 0) {
        return Status::DeadlineExceeded("pmkm_serve printed no endpoint");
      }
      char buf[256];
      const ssize_t n = read(out_fd_, buf, sizeof(buf));
      if (n <= 0) {
        return Status::IOError("pmkm_serve exited before listening; see " +
                               log_path);
      }
      text.append(buf, static_cast<size_t>(n));
    }
  }

  // SIGTERM drain; a clean daemon exits 0.
  Status Stop() {
    if (pid_ <= 0) return Status::OK();
    kill(pid_, SIGTERM);
    const Result<int> code = Reap(pid_);
    pid_ = -1;
    PMKM_RETURN_NOT_OK(code.status());
    if (*code != 0) {
      return Status::Internal("pmkm_serve exited with " +
                              std::to_string(*code));
    }
    return Status::OK();
  }

  pid_t pid() const { return pid_; }
  const std::string& endpoint() const { return endpoint_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string endpoint_;
};

// Host CPU time stolen by other guests, as a share of all CPU time since
// the snapshot was taken: the noise diagnostic recorded with every set.
class StealMeter {
 public:
  StealMeter() : start_(Read()) {}
  double Fraction() const {
    const auto [steal, total] = Read();
    return total > start_.second ? (steal - start_.first) /
                                       (total - start_.second)
                                 : 0.0;
  }

 private:
  // (steal, total) jiffies from the aggregate "cpu" line of /proc/stat.
  static std::pair<double, double> Read() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    double total = 0.0, steal = 0.0, v = 0.0;
    for (int field = 0; field < 8 && in >> v; ++field) {
      total += v;
      if (field == 7) steal = v;
    }
    return {steal, total};
  }

  std::pair<double, double> start_;
};

// Peak resident set of a live process, from /proc/<pid>/status.
double VmHwmMib(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Output checks and quality.

struct Checks {
  std::map<std::string, int64_t> ran;  // check → times it ran
  std::vector<std::string> failures;

  void Expect(const std::string& check, bool ok, const std::string& what) {
    ++ran[check];
    if (!ok && failures.size() < 50) failures.push_back(check + ": " + what);
  }
};

// A cell's bytes for identity checks: the wire/journal codec, with the
// merge timing (the only non-deterministic field) zeroed.
std::vector<uint8_t> CellBytes(CellClustering cell) {
  cell.merge_seconds = 0.0;
  return EncodeCellComplete(cell);
}

using CellMap = std::map<GridCellId, CellClustering>;

bool SameCells(const CellMap& a, const CellMap& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [id, cell] : a) {
    auto it = b.find(id);
    if (it == b.end() || CellBytes(cell) != CellBytes(it->second)) {
      return false;
    }
  }
  return true;
}

// Every model has k finite centroids whose weights sum to the cell's N.
void CheckModels(const CellMap& cells, const Workload& w,
                 size_t points_per_cell, size_t expected_cells,
                 Checks* checks) {
  checks->Expect("cell_count", cells.size() == expected_cells,
                 std::to_string(cells.size()) + " cells, expected " +
                     std::to_string(expected_cells));
  for (const auto& [id, cell] : cells) {
    const ClusteringModel& m = cell.model;
    bool finite = true;
    for (double v : m.centroids.values()) finite = finite && std::isfinite(v);
    checks->Expect("model_valid",
                   m.k() == static_cast<size_t>(w.k) && finite &&
                       std::abs(Sum(m.weights) -
                                static_cast<double>(points_per_cell)) < 0.5,
                   id.ToString() + ": k=" + std::to_string(m.k()) +
                       " weight=" + std::to_string(Sum(m.weights)));
  }
}

// Raw SSE of the models over their cells' points, as a share of the
// cells' total scatter around their means.
Result<double> SseFraction(const std::vector<std::string>& paths,
                           const CellMap& cells) {
  double sse = 0.0;
  double scatter = 0.0;
  for (const std::string& path : paths) {
    PMKM_ASSIGN_OR_RETURN(GridBucket bucket, ReadGridBucket(path));
    auto it = cells.find(bucket.cell);
    if (it == cells.end()) {
      return Status::NotFound("no model for " + bucket.cell.ToString());
    }
    sse += ModelSseOn(it->second.model, bucket.points);
    const std::vector<double> mean = bucket.points.Mean();
    for (size_t i = 0; i < bucket.points.size(); ++i) {
      for (size_t d = 0; d < bucket.points.dim(); ++d) {
        const double diff = bucket.points(i, d) - mean[d];
        scatter += diff * diff;
      }
    }
  }
  return sse / scatter;
}

// ---------------------------------------------------------------------------
// Report assembly.

struct Report {
  JsonValue e2e = JsonValue::Object();     // name → {unit, samples}
  JsonValue layers = JsonValue::Object();  // name → {value, unit}
  JsonValue info = JsonValue::Object();
  int64_t attempted = 0;
  int64_t failed = 0;

  void Samples(const std::string& name, const std::string& unit,
               const std::vector<double>& samples) {
    JsonValue s = JsonValue::Array();
    for (double v : samples) s.Append(v);
    JsonValue m = JsonValue::Object();
    m.Set("unit", unit);
    m.Set("samples", std::move(s));
    e2e.Set(name, std::move(m));
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    JsonValue m = JsonValue::Object();
    m.Set("value", value);
    m.Set("unit", unit);
    layers.Set(name, std::move(m));
  }
};

// stream.*: from engine runs' own accounting, median over the runs.
void StreamLayers(const std::vector<StreamRunResult>& runs, size_t cores,
                  Report* report) {
  std::map<std::string, std::vector<double>> v;
  for (const StreamRunResult& run : runs) {
    double partial_cpu = 0, partial_wait = 0, all_cpu = 0;
    for (const OperatorStats& op : run.operator_stats) {
      all_cpu += op.cpu_seconds;
      if (op.name == "scan") {
        v["scan_block_s"].push_back(op.queue_wait_seconds);
        v["scan_cpu_s"].push_back(op.cpu_seconds);
      } else if (op.name == "merge-kmeans") {
        v["merge_wait_s"].push_back(op.queue_wait_seconds);
      } else {
        partial_cpu += op.cpu_seconds;
        partial_wait += op.queue_wait_seconds;
      }
    }
    const double clones = static_cast<double>(run.plan.partial_clones);
    v["clones"].push_back(clones);
    v["chunk_points"].push_back(static_cast<double>(run.plan.chunk_points));
    v["partial_busy_frac"].push_back(partial_cpu /
                                     (clones * run.wall_seconds));
    v["partial_wait_s"].push_back(partial_wait);
    v["core_idle_frac"].push_back(
        1.0 - all_cpu / (static_cast<double>(cores) * run.wall_seconds));
  }
  const std::map<std::string, std::string> units = {
      {"clones", "count"},
      {"chunk_points", "count"},
      {"partial_busy_frac", "ratio"},
      {"partial_wait_s", "s"},
      {"scan_block_s", "s"},
      {"scan_cpu_s", "s"},
      {"merge_wait_s", "s"},
      {"core_idle_frac", "ratio"}};
  for (const auto& [name, unit] : units) {
    report->Layer("stream." + name, Quantile(v[name], 0.5), unit);
  }
}

// ---------------------------------------------------------------------------
// Traced replay: the engine's work for the same inputs, done serially
// through the same public calls, each call inside a span. The spans give
// the per-layer split; whatever the spans do not cover is reported as
// unattributed.

constexpr const char* kReplayCategory = "replay";

struct ReplayOptions {
  const Workload* workload;
  const EngineOptions* options;
  size_t chunk_points;
  // One entry per job: batch workloads are one job over every bucket,
  // serve workloads one job per spec.
  std::vector<std::vector<std::string>> jobs;
  std::string out;
};

Status Replay(const ReplayOptions& r, const CellMap& engine_cells,
              TraceRecorder* trace, Report* report) {
  const Workload& w = *r.workload;
  const PartialKMeans partial(r.options->partial);
  const MergeKMeans merge(r.options->merge);
  const std::string models_dir = r.out + "/replay_models";
  const std::string ckpt_dir = r.out + "/replay_ckpt";
  fs::remove_all(ckpt_dir);
  fs::create_directories(models_dir);
  double data_bytes = 0, pooled = 0, partial_iterations = 0;
  double merge_iterations = 0, serialize_bytes = 0;
  CellMap replayed;
  std::optional<CheckpointWriter> checkpoint;

  const uint64_t begin_us = trace->NowMicros();
  if (w.checkpoint) {
    ScopedSpan span(trace, "checkpoint.open", kReplayCategory);
    CheckpointOptions opts;
    opts.dir = ckpt_dir;
    opts.resume = false;
    PMKM_ASSIGN_OR_RETURN(CheckpointWriter writer,
                          CheckpointWriter::Open(opts, 0));
    checkpoint.emplace(std::move(writer));
  }
  for (const std::vector<std::string>& job : r.jobs) {
    CellMap job_cells;
    for (const std::string& path : job) {
      std::optional<GridBucketReader> reader;
      {
        ScopedSpan span(trace, "data.open", kReplayCategory);
        PMKM_ASSIGN_OR_RETURN(GridBucketReader opened,
                              GridBucketReader::Open(path));
        reader.emplace(std::move(opened));
      }
      CellClustering cell;
      cell.cell = reader->cell();
      WeightedDataset pool(reader->dim());
      for (uint32_t id = 0;; ++id) {
        Dataset chunk(reader->dim());
        bool more = false;
        {
          ScopedSpan span(trace, "data.next", kReplayCategory);
          PMKM_ASSIGN_OR_RETURN(more, reader->Next(r.chunk_points, &chunk));
        }
        if (!more) break;
        data_bytes += static_cast<double>(chunk.size() * chunk.dim() *
                                          sizeof(double));
        cell.input_points += chunk.size();
        PartialResult part;
        {
          ScopedSpan span(trace, "partial.cluster", kReplayCategory);
          PMKM_ASSIGN_OR_RETURN(
              part, partial.Cluster(chunk, PartitionTag(cell.cell, id)));
        }
        partial_iterations += static_cast<double>(part.iterations);
        pool.AppendAll(part.centroids);
      }
      cell.pooled_centroids = pool.size();
      pooled += static_cast<double>(pool.size());
      {
        ScopedSpan span(trace, "merge.merge", kReplayCategory);
        PMKM_ASSIGN_OR_RETURN(cell.model, merge.Merge(pool));
      }
      merge_iterations += static_cast<double>(cell.model.iterations);
      if (checkpoint.has_value()) {
        ScopedSpan span(trace, "checkpoint.append", kReplayCategory);
        PMKM_RETURN_NOT_OK(checkpoint->AppendCellComplete(cell));
      }
      if (!w.serve) {
        const std::string path_out =
            models_dir + "/" + cell.cell.ToString() + ".pmkm";
        {
          ScopedSpan span(trace, "serialize.save", kReplayCategory);
          PMKM_RETURN_NOT_OK(SaveModel(path_out, cell.model));
        }
        serialize_bytes += static_cast<double>(fs::file_size(path_out));
      }
      job_cells.emplace(cell.cell, std::move(cell));
    }
    if (w.serve) {
      // A serve job's output is the model set the daemon encodes for
      // FetchModel.
      ScopedSpan span(trace, "serialize.encode", kReplayCategory);
      serialize_bytes +=
          static_cast<double>(serve::EncodeModelSet(job_cells).size());
    }
    replayed.merge(job_cells);
  }
  if (checkpoint.has_value()) {
    ScopedSpan span(trace, "checkpoint.finalize", kReplayCategory);
    PMKM_RETURN_NOT_OK(checkpoint->Finalize());
  }
  const double wall_s =
      static_cast<double>(trace->NowMicros() - begin_us) * 1e-6;

  // Per-layer sums over the replay's spans.
  std::map<std::string, double> busy;
  std::vector<double> chunk_ms, append_ms;
  double spanned_s = 0.0;
  for (const TraceEvent& e : trace->Events()) {
    if (e.category != kReplayCategory) continue;
    const double s = static_cast<double>(e.dur_us) * 1e-6;
    spanned_s += s;
    const std::string layer = e.name.substr(0, e.name.find('.'));
    busy[layer] += s;
    if (e.name == "partial.cluster") chunk_ms.push_back(s * 1e3);
    if (e.name == "checkpoint.append") append_ms.push_back(s * 1e3);
  }
  report->Layer("data.read_s", busy["data"], "s");
  report->Layer("data.read_mb_per_s", data_bytes / busy["data"] / 1e6,
                "MB/s");
  report->Layer("partial.busy_s", busy["partial"], "s");
  report->Layer("partial.chunks", static_cast<double>(chunk_ms.size()),
                "count");
  report->Layer("partial.chunk_ms_p50", Quantile(chunk_ms, 0.5), "ms");
  report->Layer("partial.chunk_ms_p90", Quantile(chunk_ms, 0.9), "ms");
  report->Layer("partial.iterations", partial_iterations, "count");
  report->Layer("partial.share", busy["partial"] / wall_s, "ratio");
  report->Layer("merge.busy_s", busy["merge"], "s");
  report->Layer("merge.pooled_centroids", pooled, "count");
  report->Layer("merge.iterations", merge_iterations, "count");
  report->Layer("merge.share", busy["merge"] / wall_s, "ratio");
  report->Layer("serialize.busy_s", busy["serialize"], "s");
  report->Layer("serialize.bytes", serialize_bytes, "bytes");
  report->Layer("serialize.share", busy["serialize"] / wall_s, "ratio");
  if (w.checkpoint) {
    report->Layer("checkpoint.append_s", busy["checkpoint"], "s");
    report->Layer("checkpoint.append_ms_p95", Quantile(append_ms, 0.95),
                  "ms");
    report->Layer("checkpoint.bytes",
                  static_cast<double>(checkpoint->bytes_appended()), "bytes");
    report->Layer("checkpoint.share", busy["checkpoint"] / wall_s, "ratio");
  }
  report->Layer("trace.replay_s", wall_s, "s");
  report->Layer("trace.unattributed_frac", (wall_s - spanned_s) / wall_s,
                "ratio");
  report->Layer("trace.models_match",
                SameCells(replayed, engine_cells) ? 1.0 : 0.0, "bool");

  // kernels.*: AssignBlock alone, at the workload's D and k, over the
  // workload's own chunks against each cell's final centroids.
  const DistanceKernel& kernel = GetKernel(KernelKind::kAuto);
  double assign_s = 0.0, assigned = 0.0, flops = 0.0;
  for (const auto& job : r.jobs) {
    for (const std::string& path : job) {
      PMKM_ASSIGN_OR_RETURN(GridBucket bucket, ReadGridBucket(path));
      const ClusteringModel& model = replayed.at(bucket.cell).model;
      CentroidBlock block;
      block.Load(model.centroids);
      const size_t dim = bucket.points.dim();
      std::vector<uint32_t> assign(r.chunk_points);
      std::vector<double> dist2(r.chunk_points);
      for (size_t at = 0; at < bucket.points.size(); at += r.chunk_points) {
        const size_t n = std::min(r.chunk_points, bucket.points.size() - at);
        const auto start = Clock::now();
        kernel.AssignBlock(bucket.points.data() + at * dim, n, dim, block,
                           assign.data(), dist2.data());
        assign_s += SecondsSince(start);
        assigned += static_cast<double>(n);
        flops += 3.0 * static_cast<double>(dim * model.k() * n);
      }
    }
  }
  report->Layer("kernels.assign_mpoints_per_s", assigned / assign_s / 1e6,
                "Mpoints/s");
  report->Layer("kernels.assign_gflops", flops / assign_s / 1e9, "GFLOP/s");
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Batch workloads: PipelineBuilder::Run over the bucket files, then one
// SaveModel per cell, as `pmkm_cluster --algo=stream` does.

struct Args {
  const Workload* workload = nullptr;
  std::string root;
  std::string out;
  std::string serve_bin;
  std::string self;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// set-up of a batch run: a fresh process that resolves the kernel, probes
// the inputs and compiles the plan (PipelineBuilder::Explain).
Result<std::vector<double>> BatchSetupSamples(const Args& a, int samples) {
  std::vector<double> out;
  for (int i = 0; i < samples; ++i) {
    std::vector<std::string> argv = {
        a.self, "explain", std::string("--workload=") + a.workload->name,
        "--root=" + a.root};
    if (a.smoke) argv.push_back("--smoke");
    const auto start = Clock::now();
    const pid_t pid = Spawn(argv, -1, -1);
    if (pid < 0) return Status::IOError("fork failed");
    PMKM_ASSIGN_OR_RETURN(int code, Reap(pid));
    out.push_back(SecondsSince(start));
    if (code != 0) {
      return Status::Internal("explain child exited with " +
                              std::to_string(code));
    }
  }
  return out;
}

Status RunBatch(const Args& a, Report* report, Checks* checks) {
  const Workload& w = *a.workload;
  PMKM_ASSIGN_OR_RETURN(EngineOptions options, FlagsFor(w).ToOptions());
  const std::vector<std::string> paths = BucketPaths(w, a.root, a.smoke);
  const size_t points_per_cell = PointsOf(*w.inputs, a.smoke);
  const double total_points =
      static_cast<double>(points_per_cell * paths.size());
  const std::string models_dir = a.out + "/models";
  const std::string ckpt_dir = a.out + "/ckpt";
  fs::create_directories(models_dir);

  PMKM_ASSIGN_OR_RETURN(std::vector<double> setup,
                        BatchSetupSamples(a, a.smoke ? 2 : kSetupSamples));

  std::map<std::string, std::string> first_bytes;
  auto check_rep = [&](const StreamRunResult& run) {
    CheckModels(run.cells, w, points_per_cell, paths.size(), checks);
    for (const auto& entry : fs::directory_iterator(models_dir)) {
      std::ifstream in(entry.path(), std::ios::binary);
      std::string bytes((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
      const std::string name = entry.path().filename().string();
      auto [it, first] = first_bytes.emplace(name, bytes);
      checks->Expect("model_bytes_stable", first || it->second == bytes,
                     name + " differs from repetition 1");
    }
  };
  // One repetition: the engine run plus every SaveModel, timed together.
  using Rep = std::pair<double, StreamRunResult>;
  auto rep = [&](MetricsRegistry* metrics,
                 TraceRecorder* trace) -> Result<Rep> {
    PipelineBuilder builder(options);
    if (w.checkpoint) {
      fs::remove_all(ckpt_dir);
      builder.WithCheckpoint(ckpt_dir, 1);
    }
    if (metrics != nullptr) builder.WithMetrics(metrics).WithTrace(trace);
    ++report->attempted;
    const auto start = Clock::now();
    Result<StreamRunResult> run = builder.Run(paths);
    if (!run.ok()) {
      ++report->failed;
      return run.status();
    }
    for (const auto& [id, cell] : run->cells) {
      PMKM_RETURN_NOT_OK(
          SaveModel(models_dir + "/" + id.ToString() + ".pmkm", cell.model));
    }
    const double wall = SecondsSince(start);
    check_rep(*run);
    return std::make_pair(wall, std::move(run).value());
  };

  size_t warmup_reps = 0;
  const auto warmup_start = Clock::now();
  while (!a.smoke && (warmup_reps == 0 ||
                      SecondsSince(warmup_start) < kWarmupSeconds)) {
    PMKM_RETURN_NOT_OK(rep(nullptr, nullptr).status());
    ++warmup_reps;
  }
  std::vector<double> walls, clean_walls;
  std::vector<StreamRunResult> runs;
  const StealMeter steal;
  const auto timed_start = Clock::now();
  while (walls.empty() || SecondsSince(timed_start) < a.seconds) {
    const StealMeter rep_steal;
    PMKM_ASSIGN_OR_RETURN(auto timed, rep(nullptr, nullptr));
    walls.push_back(timed.first);
    if (rep_steal.Fraction() <= kCleanStealFrac) {
      clean_walls.push_back(timed.first);
    }
    runs.push_back(std::move(timed.second));
  }
  report->info.Set("host_steal_frac", steal.Fraction());
  const double rss = PeakRssMib();
  PMKM_ASSIGN_OR_RETURN(double sse, SseFraction(paths, runs.back().cells));

  // While other guests hold the host's CPUs, this pipeline's throughput
  // tracks their load rather than the code: on the VM the benchmark was
  // written on, throughput fell by half in sets where steal reached 14%.
  // Repetitions measured under steal are left out, as long as at least
  // half of them ran clean; otherwise every repetition counts and run.py
  // flags the set.
  const std::vector<double>& kept =
      clean_walls.size() * 2 >= walls.size() ? clean_walls : walls;
  // Throughput over the kept repetitions' total time: on a shared host the
  // median of a few multi-second repetitions spreads wider than their sum.
  std::vector<double> job_ms;
  for (double wall : kept) job_ms.push_back(wall * 1e3);
  report->Samples("points_per_s", "points/s",
                  {total_points * static_cast<double>(kept.size()) /
                   Sum(kept)});
  report->Samples("job_p50_ms", "ms", job_ms);
  report->Samples("setup_s", "s", setup);
  report->Samples("peak_rss_mib", "MiB", {rss});
  report->Layer("quality.sse_frac", sse, "ratio");
  report->info.Set("warmup_reps", warmup_reps);
  report->info.Set("timed_reps", walls.size());
  report->info.Set("kept_reps", kept.size());
  report->info.Set("first_rep_ratio", walls.front() / Quantile(walls, 0.5));

  if (!a.trace) return Status::OK();
  StreamLayers(runs, options.resources.EffectiveCores(), report);
  {
    MetricsRegistry registry;
    TraceRecorder engine_trace;
    PMKM_ASSIGN_OR_RETURN(auto traced, rep(&registry, &engine_trace));
    report->Layer("obs.overhead_frac",
                  traced.first / Quantile(walls, 0.5) - 1.0, "ratio");
  }
  TraceRecorder trace;
  ReplayOptions replay{&w, &options, runs.back().plan.chunk_points,
                       {paths}, a.out};
  PMKM_RETURN_NOT_OK(Replay(replay, runs.back().cells, &trace, report));
  return trace.WriteJson(a.out + "/trace.json");
}

// ---------------------------------------------------------------------------
// Serve workloads: a pmkm_serve daemon and kClients RemoteService clients.

// Counts and times every status poll the base-class AwaitJob makes.
class CountingRemote : public serve::RemoteService {
 public:
  explicit CountingRemote(TraceRecorder* trace) : trace_(trace) {}

  Result<serve::JobInfo> JobStatus(uint64_t job_id) override {
    ScopedSpan span(trace_, "serve.status", "serve");
    span.AddArg("job", job_id);
    const auto start = Clock::now();
    Result<serve::JobInfo> info = RemoteService::JobStatus(job_id);
    poll_ms_.push_back(SecondsSince(start) * 1e3);
    return info;
  }

  std::vector<double> TakePolls() { return std::exchange(poll_ms_, {}); }

 private:
  TraceRecorder* trace_;
  std::vector<double> poll_ms_;
};

struct JobRecord {
  size_t spec = 0;
  bool ok = false;
  std::string error;
  double late_ms = 0, submit_ms = 0, await_ms = 0, fetch_ms = 0;
  double latency_ms = 0, engine_ms = 0, done_s = 0;
  size_t fetch_bytes = 0;
  std::vector<double> poll_ms;
  CellMap cells;
};

struct PendingJob {
  JobRecord record;
  uint64_t id = 0;
  Clock::time_point due;
  Clock::time_point submitted;
};

// Submits one job; false (with record.error set) when it was rejected.
bool SubmitOne(CountingRemote* remote, const serve::JobSpec& spec,
               Clock::time_point due, TraceRecorder* trace,
               PendingJob* job) {
  const auto start = Clock::now();
  job->due = due;
  job->record.late_ms = Millis(start - due);
  Result<uint64_t> id = Status::Internal("not submitted");
  {
    ScopedSpan span(trace, "serve.submit", "serve");
    id = remote->SubmitJob(spec);
    if (id.ok()) span.AddArg("job", *id);
  }
  job->submitted = Clock::now();
  job->record.submit_ms = Millis(job->submitted - start);
  if (!id.ok()) {
    job->record.error = "rejected: " + id.status().ToString();
    return false;
  }
  job->id = *id;
  return true;
}

// Awaits a submitted job (base-class polling) and fetches its models.
void CompleteOne(CountingRemote* remote, Clock::time_point load_start,
                 TraceRecorder* trace, PendingJob* job) {
  JobRecord& r = job->record;
  (void)remote->TakePolls();
  Result<serve::JobInfo> info = remote->AwaitJob(job->id, kJobTimeoutMs);
  const auto awaited = Clock::now();
  r.poll_ms = remote->TakePolls();
  r.await_ms = Millis(awaited - job->submitted);
  if (!info.ok() || info->state != serve::JobState::kDone) {
    r.error = info.ok() ? std::string("job ended ") +
                              serve::JobStateToString(info->state)
                        : "await: " + info.status().ToString();
    return;
  }
  r.engine_ms = info->wall_seconds * 1e3;
  Result<CellMap> cells = Status::Internal("not fetched");
  {
    ScopedSpan span(trace, "serve.fetch", "serve");
    span.AddArg("job", job->id);
    cells = remote->FetchModel(job->id);
  }
  const auto fetched = Clock::now();
  r.fetch_ms = Millis(fetched - awaited);
  if (!cells.ok()) {
    r.error = "fetch: " + cells.status().ToString();
    return;
  }
  r.latency_ms = Millis(fetched - job->due);
  r.done_s = std::chrono::duration<double>(fetched - load_start).count();
  r.fetch_bytes = serve::EncodeModelSet(*cells).size();
  r.cells = std::move(cells).value();
  r.ok = true;
}

// Runs the workload's load for `seconds`. Open loop: job i is due at
// start + i / rate and any free client takes it. Closed loop: each client
// keeps kInFlightPerClient jobs outstanding, submitting the next as soon
// as one is fetched.
Result<std::vector<JobRecord>> RunLoad(const Workload& w,
                                       const std::string& endpoint,
                                       const std::vector<serve::JobSpec>& specs,
                                       double seconds, TraceRecorder* trace) {
  const auto start = Clock::now() + std::chrono::milliseconds(50);
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  std::atomic<size_t> next{0};
  std::vector<std::vector<JobRecord>> records(kClients);
  std::vector<Status> errors(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      CountingRemote remote(trace);
      errors[c] = remote.Connect(endpoint);
      if (!errors[c].ok()) return;
      auto spec_for = [&](size_t i) {
        serve::JobSpec spec = specs[i % specs.size()];
        spec.client = "bench-" + std::to_string(c);
        return spec;
      };
      if (w.jobs_per_s > 0) {
        for (;;) {
          const size_t i = next.fetch_add(1);
          const auto due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              static_cast<double>(i) / w.jobs_per_s));
          if (due >= end) break;
          std::this_thread::sleep_until(due);
          PendingJob job;
          job.record.spec = i % specs.size();
          if (SubmitOne(&remote, spec_for(i), due, trace, &job)) {
            CompleteOne(&remote, start, trace, &job);
          }
          records[c].push_back(std::move(job.record));
        }
        return;
      }
      std::this_thread::sleep_until(start);
      std::deque<PendingJob> in_flight;
      auto submit_next = [&] {
        const size_t i = next.fetch_add(1);
        PendingJob job;
        job.record.spec = i % specs.size();
        if (SubmitOne(&remote, spec_for(i), Clock::now(), trace, &job)) {
          in_flight.push_back(std::move(job));
        } else {
          records[c].push_back(std::move(job.record));
        }
      };
      while (in_flight.size() < kInFlightPerClient) submit_next();
      while (!in_flight.empty()) {
        CompleteOne(&remote, start, trace, &in_flight.front());
        records[c].push_back(std::move(in_flight.front().record));
        in_flight.pop_front();
        if (Clock::now() < end) submit_next();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (const Status& st : errors) PMKM_RETURN_NOT_OK(st);
  std::vector<JobRecord> all;
  for (auto& per_client : records) {
    for (JobRecord& r : per_client) all.push_back(std::move(r));
  }
  return all;
}

// set-up of the service: spawning pmkm_serve until a client's first
// Connect + Ping succeeds.
Result<std::vector<double>> ServeSetupSamples(const Args& a, int samples) {
  std::vector<double> out;
  for (int i = 0; i < samples; ++i) {
    ServeProcess daemon;
    const auto start = Clock::now();
    PMKM_RETURN_NOT_OK(daemon.Start(a.serve_bin, a.out + "/serve.log"));
    serve::RemoteService client;
    PMKM_RETURN_NOT_OK(client.Connect(daemon.endpoint()));
    PMKM_RETURN_NOT_OK(client.Ping());
    out.push_back(SecondsSince(start));
    client.Disconnect();
    PMKM_RETURN_NOT_OK(daemon.Stop());
  }
  return out;
}

Status RunServe(const Args& a, Report* report, Checks* checks) {
  const Workload& w = *a.workload;
  const EngineFlags flags = FlagsFor(w);
  PMKM_ASSIGN_OR_RETURN(EngineOptions options, flags.ToOptions());
  const std::vector<std::string> pool = BucketPaths(w, a.root, a.smoke);
  const size_t points_per_cell = PointsOf(*w.inputs, a.smoke);
  const double job_points =
      static_cast<double>(points_per_cell * kBucketsPerJob);

  std::vector<serve::JobSpec> specs;
  std::vector<std::vector<std::string>> jobs;
  for (size_t j = 0; j + kBucketsPerJob <= pool.size(); j += kBucketsPerJob) {
    serve::JobSpec spec;
    const auto first = pool.begin() + static_cast<ptrdiff_t>(j);
    spec.bucket_paths.assign(first, first + kBucketsPerJob);
    spec.engine = flags;
    jobs.push_back(spec.bucket_paths);
    specs.push_back(std::move(spec));
  }

  // Reference models: each spec in-process, before any timing.
  std::vector<CellMap> reference;
  std::vector<StreamRunResult> reference_runs;
  CellMap all_cells;
  for (const serve::JobSpec& spec : specs) {
    PMKM_ASSIGN_OR_RETURN(StreamRunResult run,
                          PipelineBuilder(options).Run(spec.bucket_paths));
    CheckModels(run.cells, w, points_per_cell, kBucketsPerJob, checks);
    reference.push_back(run.cells);
    for (const auto& [id, cell] : run.cells) all_cells.emplace(id, cell);
    reference_runs.push_back(std::move(run));
  }
  PMKM_ASSIGN_OR_RETURN(double sse, SseFraction(pool, all_cells));

  PMKM_ASSIGN_OR_RETURN(std::vector<double> setup,
                        ServeSetupSamples(a, a.smoke ? 2 : kSetupSamples));

  TraceRecorder trace;
  TraceRecorder* load_trace = a.trace ? &trace : nullptr;
  ServeProcess daemon;
  PMKM_RETURN_NOT_OK(daemon.Start(a.serve_bin, a.out + "/serve.log"));
  std::vector<JobRecord> warmup;
  if (!a.smoke) {
    PMKM_ASSIGN_OR_RETURN(warmup, RunLoad(w, daemon.endpoint(), specs,
                                          kWarmupSeconds, nullptr));
  }
  const StealMeter steal;
  PMKM_ASSIGN_OR_RETURN(
      std::vector<JobRecord> timed,
      RunLoad(w, daemon.endpoint(), specs, a.seconds, load_trace));
  report->info.Set("host_steal_frac", steal.Fraction());
  const double rss = VmHwmMib(daemon.pid());
  const Status stopped = daemon.Stop();
  checks->Expect("daemon_clean_exit", stopped.ok(), stopped.ToString());

  // Fetch order, so the first jobs of the window come first.
  std::sort(timed.begin(), timed.end(),
            [](const JobRecord& x, const JobRecord& y) {
              return x.done_s < y.done_s;
            });
  std::vector<double> latency, submit_ms, fetch_ms, engine_ms, slack_ms;
  std::vector<double> late_ms, poll_ms, polls_per_job, fetch_bytes;
  double points_done = 0.0, window_s = 0.0;
  size_t rejected = 0;
  for (const std::vector<JobRecord>* set : {&warmup, &timed}) {
    for (const JobRecord& r : *set) {
      ++report->attempted;
      if (!r.ok) {
        ++report->failed;
        rejected += r.error.rfind("rejected", 0) == 0 ? 1 : 0;
        checks->Expect("job_done", false, r.error);
        continue;
      }
      checks->Expect("serve_models_match",
                     SameCells(r.cells, reference[r.spec]),
                     "job of spec " + std::to_string(r.spec) +
                         " differs from the in-process run");
      if (set != &timed) continue;
      latency.push_back(r.latency_ms);
      submit_ms.push_back(r.submit_ms);
      fetch_ms.push_back(r.fetch_ms);
      engine_ms.push_back(r.engine_ms);
      slack_ms.push_back(r.await_ms - r.engine_ms);
      late_ms.push_back(r.late_ms);
      polls_per_job.push_back(static_cast<double>(r.poll_ms.size()));
      poll_ms.insert(poll_ms.end(), r.poll_ms.begin(), r.poll_ms.end());
      fetch_bytes.push_back(static_cast<double>(r.fetch_bytes));
      points_done += job_points;
      window_s = std::max(window_s, r.done_s);
    }
  }
  if (latency.empty()) return Status::Internal("no serve job completed");
  report->Samples("points_per_s", "points/s", {points_done / window_s});
  report->Samples("job_p50_ms", "ms", latency);
  report->Samples("setup_s", "s", setup);
  report->Samples("peak_rss_mib", "MiB", {rss});
  report->Layer("quality.sse_frac", sse, "ratio");
  const std::vector<double> first(
      latency.begin(),
      latency.begin() + std::min<ptrdiff_t>(5, std::ssize(latency)));
  report->info.Set("jobs", latency.size());
  report->info.Set("warmup_jobs", warmup.size());
  report->info.Set("first_rep_ratio",
                   Quantile(first, 0.5) / Quantile(latency, 0.5));
  report->info.Set("job_p90_ms", Quantile(latency, 0.9));
  report->info.Set("jobs_per_s",
                   static_cast<double>(latency.size()) / window_s);
  report->info.Set("late_ms_p99", Quantile(late_ms, 0.99));

  if (!a.trace) return Status::OK();
  report->Layer("serve.submit_ms_p50", Quantile(submit_ms, 0.5), "ms");
  report->Layer("serve.status_polls_per_job", Quantile(polls_per_job, 0.5),
                "count");
  report->Layer("serve.status_ms_p50", Quantile(poll_ms, 0.5), "ms");
  report->Layer("serve.fetch_ms_p50", Quantile(fetch_ms, 0.5), "ms");
  report->Layer("serve.fetch_bytes", Quantile(fetch_bytes, 0.5), "bytes");
  report->Layer("serve.engine_ms_p50", Quantile(engine_ms, 0.5), "ms");
  report->Layer("serve.await_slack_ms_p50", Quantile(slack_ms, 0.5), "ms");
  report->Layer("serve.await_slack_ms_p90", Quantile(slack_ms, 0.9), "ms");
  report->Layer("serve.rejected", static_cast<double>(rejected), "count");
  report->Layer("serve.late_ms_p99", Quantile(late_ms, 0.99), "ms");

  StreamLayers(reference_runs, options.resources.EffectiveCores(), report);
  double plain_s = 0.0, traced_s = 0.0;
  for (const StreamRunResult& run : reference_runs) {
    plain_s += run.wall_seconds;
  }
  for (const serve::JobSpec& spec : specs) {
    MetricsRegistry registry;
    TraceRecorder engine_trace;
    PMKM_ASSIGN_OR_RETURN(StreamRunResult run,
                          PipelineBuilder(options)
                              .WithMetrics(&registry)
                              .WithTrace(&engine_trace)
                              .Run(spec.bucket_paths));
    traced_s += run.wall_seconds;
  }
  report->Layer("obs.overhead_frac", traced_s / plain_s - 1.0, "ratio");
  ReplayOptions replay{&w, &options, reference_runs.front().plan.chunk_points,
                       jobs, a.out};
  PMKM_RETURN_NOT_OK(Replay(replay, all_cells, &trace, report));
  return trace.WriteJson(a.out + "/trace.json");
}

// ---------------------------------------------------------------------------

int Fail(const Status& status) {
  std::cerr << "pmkm_bench: " << status << "\n";
  return 1;
}

int Main(int argc, char** argv) {
  std::string workload_name, root, out, serve_bin;
  int64_t seed = 1;
  int64_t trace = 0;
  double seconds = 10.0;
  bool smoke = false;
  FlagParser parser;
  parser.SetDescription("pmkm_bench: repository benchmark harness")
      .SetPositionalUsage("info | gen | explain | run")
      .AddString("workload", &workload_name, "workload name")
      .AddString("root", &root, "input directory (one subdirectory per "
                                "input set)")
      .AddString("out", &out, "output directory of this run")
      .AddString("serve_bin", &serve_bin, "pmkm_serve binary")
      .AddInt("seed", &seed, "input seed")
      .AddInt("trace", &trace, "1 = also measure the per-layer metrics")
      .AddDouble("seconds", &seconds, "timed measurement length")
      .AddBool("smoke", &smoke, "about 2% size, one repetition");
  if (const Status st = parser.Parse(argc, argv); !st.ok()) {
    return st.IsCancelled() ? 0 : Fail(st);
  }
  const std::string command =
      parser.positional().empty() ? "" : parser.positional()[0];
  if (command == "info") {
    JsonValue info = JsonValue::Object();
    info.Set("isa", HostIsaDescription());
    info.Set("kernel", GetKernel(KernelKind::kAuto).name());
    info.Set("compiler", PMKM_BENCH_COMPILER);
    info.Set("build_type", PMKM_BENCH_BUILD_TYPE);
    info.Set("cxx_flags", PMKM_BENCH_CXX_FLAGS);
    std::cout << info.Dump() << "\n";
    return 0;
  }
  const Workload* workload = FindWorkload(workload_name);
  if (workload == nullptr) {
    return Fail(Status::InvalidArgument("unknown --workload=" +
                                        workload_name));
  }
  if (command == "gen") {
    const Status st =
        Generate(*workload, static_cast<uint64_t>(seed), root, smoke);
    return st.ok() ? 0 : Fail(st);
  }
  if (command == "explain") {
    auto options = FlagsFor(*workload).ToOptions();
    if (!options.ok()) return Fail(options.status());
    auto plan = PipelineBuilder(*options).Explain(
        BucketPaths(*workload, root, smoke));
    return plan.ok() ? 0 : Fail(plan.status());
  }
  if (command != "run") {
    return Fail(Status::InvalidArgument("unknown command '" + command + "'"));
  }
  Args args;
  args.workload = workload;
  args.root = root;
  args.out = out;
  args.serve_bin = serve_bin;
  args.self = fs::canonical("/proc/self/exe").string();
  args.seconds = seconds;
  args.trace = trace != 0;
  args.smoke = smoke;
  fs::create_directories(out);
  Report report;
  Checks checks;
  const Status st = workload->serve ? RunServe(args, &report, &checks)
                                    : RunBatch(args, &report, &checks);
  if (!st.ok()) return Fail(st);
  JsonValue ran = JsonValue::Object();
  for (const auto& [name, count] : checks.ran) ran.Set(name, count);
  JsonValue failures = JsonValue::Array();
  for (const std::string& f : checks.failures) failures.Append(f);
  JsonValue result = JsonValue::Object();
  result.Set("workload", workload->name);
  result.Set("attempted", report.attempted);
  result.Set("failed", report.failed);
  result.Set("checks", std::move(ran));
  result.Set("failures", std::move(failures));
  result.Set("end_to_end", std::move(report.e2e));
  result.Set("layers", std::move(report.layers));
  result.Set("info", std::move(report.info));
  std::cout << result.Dump() << "\n";
  return 0;
}

}  // namespace
}  // namespace pmkm

int main(int argc, char** argv) { return pmkm::Main(argc, argv); }
