#include "stream/operator.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "common/annotations.h"
#include "common/logging.h"
#include "common/schedcheck/thread.h"
#include "common/stopwatch.h"
#include "obs/runboard.h"
#include "obs/trace.h"

namespace pmkm {

void Operator::PublishLive() {
  if (obs_.board != nullptr) {
    obs_.board->PublishOperator(obs_.run_id, live_slot_, stats_);
  }
}

const char* FailurePolicyToString(FailurePolicy policy) {
  switch (policy) {
    case FailurePolicy::kFailFast:
      return "failfast";
    case FailurePolicy::kSkipAndContinue:
      return "skip";
  }
  return "unknown";
}

Result<FailurePolicy> ParseFailurePolicy(const std::string& name) {
  if (name == "failfast") return FailurePolicy::kFailFast;
  if (name == "skip") return FailurePolicy::kSkipAndContinue;
  return Status::InvalidArgument("unknown failure policy '" + name +
                                 "' (use failfast|skip)");
}

namespace {

/// How often a supervising Executor::Run checks the token and deadline.
constexpr std::chrono::milliseconds kSupervisePoll{10};

/// Supervision state shared by the operator threads and the supervising
/// caller for one Executor::Run; annotated so the cross-thread accesses
/// are verified by thread-safety analysis.
struct RunState {
  Mutex mu;
  Status first_error PMKM_GUARDED_BY(mu);

  std::atomic<bool> failed{false};
  std::atomic<size_t> running{0};

  /// Wakes the supervising caller once the last operator finished.
  Mutex wake_mu;
  CondVar wake_cv;
};

}  // namespace

Status Executor::Run(const std::atomic<bool>* cancel,
                     uint64_t deadline_ms) {
  const Stopwatch since_entry;
  operator_stats_.assign(ops_.size(), OperatorStats{});
  if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
    return Status::Cancelled("run cancelled");
  }
  if (ops_.empty()) return Status::OK();

  RunState state;
  state.running.store(ops_.size());

  auto on_error = [&](const Status& st) {
    PMKM_SCHED_POINT("executor.on_error");
    bool expected = false;
    if (state.failed.compare_exchange_strong(expected, true)) {
      {
        MutexLock lock(state.mu);
        state.first_error = st;
      }
      for (auto& op : ops_) op->Abort();
    }
  };

  // schedcheck::Thread: plain std::thread outside a scheduler episode;
  // inside one, operator threads run under deterministic schedule control.
  std::vector<schedcheck::Thread> threads;
  threads.reserve(ops_.size());
  for (size_t i = 0; i < ops_.size(); ++i) {
    threads.emplace_back([&, i] {
      Operator* op = ops_[i].get();
      const ScopedLogRunId log_run_id(op->obs().run_id);
      // Wall/CPU clocks bracket Run(); the span makes the operator's
      // lifetime a row in the trace viewer.
      const Stopwatch wall;
      const ThreadCpuStopwatch cpu;
      ScopedSpan span(op->obs().trace, "operator:" + op->name(),
                      "executor");
      const Status st = op->Run();
      const bool torn_down =
          st.IsCancelled() && state.failed.load(std::memory_order_acquire);
      // A fatal error is recorded (and the pipeline aborted) before Finish
      // closes this operator's outputs. Closing first would show
      // downstream a clean end-of-stream, and the error it then raises
      // for the missing data could win the first-error race.
      if (!st.ok() && !torn_down) on_error(st);
      op->Finish();
      OperatorStats& stats = op->mutable_stats();
      stats.wall_seconds += wall.ElapsedSeconds();
      stats.cpu_seconds += cpu.ElapsedSeconds();
      operator_stats_[i] = stats;
      if (state.running.fetch_sub(1) == 1) {
        MutexLock lock(state.wake_mu);
        state.wake_cv.NotifyAll();
      }
    }, "op-worker");
  }

  // The calling thread supervises: it wakes every kSupervisePoll (or
  // at a shorter deadline), or as soon as the last operator finishes, and
  // turns a cancel or a missed deadline into the same abort as an
  // operator error.
  const std::chrono::milliseconds poll =
      deadline_ms > 0
          ? std::min(kSupervisePoll, std::chrono::milliseconds(deadline_ms))
          : kSupervisePoll;
  auto supervise = [&]() -> Status {
    MutexLock lock(state.wake_mu);
    while (state.running.load() > 0) {
      state.wake_cv.WaitFor(state.wake_mu, poll);
      if (state.running.load() == 0 || state.failed.load()) break;
      if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
        return Status::Cancelled("run cancelled");
      }
      if (deadline_ms > 0 &&
          since_entry.ElapsedMillis() >= static_cast<double>(deadline_ms)) {
        return Status::DeadlineExceeded("run exceeded its deadline of " +
                                        std::to_string(deadline_ms) +
                                        " ms");
      }
    }
    return Status::OK();
  };
  if (cancel != nullptr || deadline_ms > 0) {
    if (Status st = supervise(); !st.ok()) on_error(st);
  }

  for (auto& t : threads) t.Join();
  MutexLock lock(state.mu);
  return state.first_error;
}

}  // namespace pmkm
