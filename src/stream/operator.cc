#include "stream/operator.h"

#include <atomic>
#include <chrono>

#include "common/annotations.h"
#include "common/schedcheck/thread.h"
#include "common/stopwatch.h"
#include "obs/runboard.h"
#include "obs/trace.h"

namespace pmkm {

void Operator::PublishLive() {
  if (obs_.board != nullptr) {
    obs_.board->PublishOperator(live_slot_, stats_);
  }
}

const char* FailurePolicyToString(FailurePolicy policy) {
  switch (policy) {
    case FailurePolicy::kFailFast:
      return "failfast";
    case FailurePolicy::kRetryOperator:
      return "retry";
    case FailurePolicy::kSkipAndContinue:
      return "skip";
  }
  return "unknown";
}

Result<FailurePolicy> ParseFailurePolicy(const std::string& name) {
  if (name == "failfast" || name == "fail_fast") {
    return FailurePolicy::kFailFast;
  }
  if (name == "retry") return FailurePolicy::kRetryOperator;
  if (name == "skip") return FailurePolicy::kSkipAndContinue;
  return Status::InvalidArgument("unknown failure policy '" + name +
                                 "' (use failfast|retry|skip)");
}

namespace {

/// How often the watchdog samples the progress counters.
constexpr std::chrono::milliseconds kWatchdogPoll{10};

/// Supervision state shared by the operator threads and the watchdog for
/// one Executor::Run; annotated so the cross-thread accesses are verified
/// by thread-safety analysis.
struct RunState {
  Mutex mu;
  Status first_error PMKM_GUARDED_BY(mu);

  std::atomic<bool> failed{false};
  std::atomic<size_t> running{0};

  /// Signals the watchdog: either poll timeout elapsed or pipeline done.
  Mutex wake_mu;
  CondVar wake_cv;
};

}  // namespace

Status Executor::Run(uint64_t op_timeout_ms) {
  report_ = ExecutorReport{};
  report_.operator_stats.resize(ops_.size());
  if (ops_.empty()) return Status::OK();

  RunState state;
  state.running.store(ops_.size());
  std::vector<std::atomic<bool>> done(ops_.size());

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
      report_.operator_stats[i] = stats;
      done[i].store(true, std::memory_order_release);
      if (state.running.fetch_sub(1) == 1) {
        MutexLock lock(state.wake_mu);
        state.wake_cv.NotifyAll();
      }
    }, "op-worker");
  }

  schedcheck::Thread watchdog;
  if (op_timeout_ms > 0) {
    watchdog = schedcheck::Thread([&] {
      using Clock = std::chrono::steady_clock;
      const auto timeout = std::chrono::milliseconds(op_timeout_ms);
      uint64_t last_sum = 0;
      for (auto& op : ops_) last_sum += op->progress();
      auto last_change = Clock::now();
      MutexLock lock(state.wake_mu);
      for (;;) {
        state.wake_cv.WaitFor(state.wake_mu, kWatchdogPoll);
        if (state.running.load(std::memory_order_acquire) == 0 ||
            state.failed.load(std::memory_order_acquire)) {
          return;
        }
        uint64_t sum = 0;
        for (auto& op : ops_) sum += op->progress();
        const auto now = Clock::now();
        if (sum != last_sum) {
          last_sum = sum;
          last_change = now;
          continue;
        }
        if (now - last_change < timeout) continue;
        std::string stalled;
        for (size_t i = 0; i < ops_.size(); ++i) {
          if (done[i].load(std::memory_order_acquire)) continue;
          if (!stalled.empty()) stalled += ", ";
          stalled += ops_[i]->name();
        }
        report_.stalled_operators = stalled;
        on_error(Status::DeadlineExceeded(
            "watchdog: no pipeline progress for " +
            std::to_string(op_timeout_ms) +
            " ms; stalled operator(s): " + stalled));
        return;
      }
    }, "watchdog");
  }

  for (auto& t : threads) t.Join();
  if (watchdog.Joinable()) {
    {
      MutexLock lock(state.wake_mu);
      state.wake_cv.NotifyAll();
    }
    watchdog.Join();
  }

  MutexLock lock(state.mu);
  return state.first_error;
}

}  // namespace pmkm
