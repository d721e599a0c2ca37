// Sampling CPU profiler: SIGPROF/ITIMER_PROF backtraces into a lock-free
// ring, exported as folded-stack text (one "frame;frame;frame count" line
// per unique stack, root first — the input format flamegraph.pl and
// speedscope consume directly).
//
// How it works: Start() arms ITIMER_PROF at `hz`; the kernel delivers
// SIGPROF to a running thread every 1/hz seconds of *process CPU time*,
// and the handler captures a backtrace() into a preallocated ring slot
// (no locks, no allocation — see DESIGN.md §14 for the signal-safety
// notes; backtrace() is warmed up before the handler is installed so its
// lazy dynamic-loader initialization never runs in signal context).
// Symbolization (dladdr + demangling) happens later, outside signal
// context, in FoldedStacks().
//
// Cost: a stopped profiler costs nothing — no timer, no handler, zero
// instructions on any code path (benchmarked in bench_micro). A running
// one costs one backtrace per sampling tick (~1–2 µs at the default
// 99 Hz ≈ 0.02% CPU).
//
// Wiring: `pmkm_cluster --profile_out=prof.folded` profiles the run;
// `/pprofz` on the debug server serves the live folded text;
// `pmkm_inspect profile prof.folded` renders a top-N report.
//
// Consistency: the ring may wrap (oldest samples overwritten); a reader
// racing the handler can see a torn slot, which is skipped via its depth
// marker. One process-wide profiler (Global()) — ITIMER_PROF is
// per-process, so there is nothing to instantiate per run.

#ifndef PMKM_OBS_PROFILER_H_
#define PMKM_OBS_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/status.h"

namespace pmkm {
namespace obs {

class CpuProfiler {
 public:
  struct Options {
    /// Sampling frequency in samples per second of process CPU time.
    int hz = 99;
    /// Ring capacity; once full the oldest samples are overwritten.
    size_t max_samples = 1 << 16;
    /// Frames captured per sample (deeper stacks are truncated at the
    /// leaf end).
    size_t max_depth = 48;
  };

  /// The process-wide profiler (ITIMER_PROF is per-process).
  static CpuProfiler& Global();

  /// Arms the timer and installs the SIGPROF handler. Fails if already
  /// running. Clears previously collected samples.
  Status Start(const Options& options);
  Status Start() { return Start(Options()); }

  /// Disarms the timer and restores the previous SIGPROF disposition.
  /// Collected samples remain readable until the next Start().
  Status Stop();

  bool running() const {
    return running_.load(std::memory_order_acquire);
  }

  /// Samples currently retained (≤ max_samples).
  uint64_t sample_count() const;

  /// Folded-stack text: "main;Run;AssignBlock 42\n..." sorted by count,
  /// root-first frames, semicolon-separated, demangled where possible.
  /// Callable while running (reads a racy but safe snapshot).
  std::string FoldedStacks() const;

  /// Publishes FoldedStacks() at `path` through AtomicWriteFile.
  Status WriteFolded(const std::string& path) const;

 private:
  CpuProfiler() = default;

  static void SignalHandler(int signum) PMKM_SIGNAL_SAFE;

  std::atomic<bool> running_{false};
  std::atomic<bool> armed_{false};  // handler writes only when set
  std::atomic<uint64_t> next_{0};   // total samples ever taken
  size_t max_samples_ = 0;
  size_t max_depth_ = 0;
  // Slot i holds depths_[i] frames at pcs_[i * max_depth_ ...]. The depth
  // is 0 while the handler rewrites a slot, so readers skip torn slots.
  std::vector<void*> pcs_;
  std::vector<std::atomic<int>> depths_;
};

/// One aggregated row of a folded-stack profile (pmkm_inspect profile).
struct ProfileFrameTotals {
  std::string frame;
  uint64_t self = 0;   // samples with this frame as the leaf
  uint64_t total = 0;  // samples with this frame anywhere on the stack
};

/// Parses folded-stack text and aggregates per-frame self/total counts,
/// sorted by self descending (ties: total, then name). Returns the grand
/// total sample count via `total_samples` when non-null.
std::vector<ProfileFrameTotals> AggregateFolded(const std::string& folded,
                                                uint64_t* total_samples);

}  // namespace obs
}  // namespace pmkm

#endif  // PMKM_OBS_PROFILER_H_
