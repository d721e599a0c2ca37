// Operator and Executor: the minimal Conquest-style execution environment.
//
// A pipeline is a set of operator instances connected by bounded queues;
// the executor runs each instance on its own thread (paper Fig. 3: data
// stream operators process data in a pipelined fashion). Cloning an
// operator = adding another instance that shares the same input and output
// queues; the queues' producer counting makes end-of-stream exact.
//
// Supervision: every operator carries a FailurePolicy, ticks a progress
// counter as it moves data, and may opt into being restarted after a
// failure. The executor runs a watchdog that aborts the pipeline with a
// descriptive deadline error when no operator makes progress for a
// configurable timeout (a stalled operator would otherwise hang a
// TB-scale run forever).

#ifndef PMKM_STREAM_OPERATOR_H_
#define PMKM_STREAM_OPERATOR_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/stats.h"

namespace pmkm {

/// What the pipeline does when an operator (or one of its work items)
/// fails.
enum class FailurePolicy {
  /// Abort the whole pipeline on the first error (legacy behavior).
  kFailFast,
  /// Retry: operators retry failed work items with backoff, and the
  /// executor restarts restartable operators from their last completed
  /// unit (scan: last completed bucket).
  kRetryOperator,
  /// Degrade gracefully: quarantine the failing bucket/cell, record it in
  /// the run report, and keep clustering everything healthy.
  kSkipAndContinue,
};

const char* FailurePolicyToString(FailurePolicy policy);

/// Parses "failfast" | "retry" | "skip" (case-sensitive).
Result<FailurePolicy> ParseFailurePolicy(const std::string& name);

/// One physical operator instance. Run() executes the whole operator on
/// the executor's thread; Abort() must unblock a Run() in progress (cancel
/// the operator's queues) and is called on pipeline failure.
class Operator {
 public:
  explicit Operator(std::string name) : name_(std::move(name)) {
    stats_.name = name_;
  }
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  const std::string& name() const { return name_; }

  virtual Status Run() = 0;
  virtual void Abort() = 0;

  /// Restart support for kRetryOperator: a restartable operator keeps its
  /// resume state across Run() calls (and must keep its output producer
  /// registration open when Run() fails under kRetryOperator, so
  /// downstream operators do not observe a premature end-of-stream).
  virtual bool SupportsRestart() const { return false; }

  /// Prepares a restartable operator for the next Run() attempt.
  virtual Status PrepareRestart() {
    return Status::NotImplemented("operator '" + name_ +
                                  "' is not restartable");
  }

  /// Called by the executor exactly once after the final Run() attempt
  /// (successful or not), after a fatal error has been recorded.
  /// Operators that can fail close their output producers here rather
  /// than when Run() returns, so downstream never mistakes a failure for
  /// the end of the stream; default is a no-op.
  virtual void Finish() {}

  FailurePolicy failure_policy() const { return failure_policy_; }
  void set_failure_policy(FailurePolicy policy) { failure_policy_ = policy; }

  /// Observability sinks (metrics registry + trace recorder); both null by
  /// default. Set before Executor::Run; operators emit spans and the
  /// executor exports stats only when the sinks are present.
  const ObsContext& obs() const { return obs_; }
  void set_obs(const ObsContext& obs) { obs_ = obs; }

  /// Cooperative cancellation token (StreamExecOptions::cancel), set by
  /// the engine before Executor::Run. Source operators poll it between
  /// work units and return Status::Cancelled, which the executor treats
  /// as terminal under every failure policy.
  void set_cancel_token(const std::atomic<bool>* cancel) {
    cancel_ = cancel;
  }

  /// Slot of this instance in the RunBoard layout declared by
  /// RunBoard::BeginRun (set by the engine together with set_obs when a
  /// debug server is attached).
  void set_live_slot(size_t slot) { live_slot_ = slot; }
  size_t live_slot() const { return live_slot_; }

  /// Execution accounting for this instance. Written by the operator's own
  /// executor thread during Run() and by the executor around it; read it
  /// only after the pipeline joined (the ExecutorReport carries a copy).
  const OperatorStats& stats() const { return stats_; }
  OperatorStats& mutable_stats() { return stats_; }

  /// Monotonic count of completed work units; the executor's watchdog
  /// declares the pipeline stalled when the sum over all operators stops
  /// advancing.
  uint64_t progress() const {
    return progress_.load(std::memory_order_relaxed);
  }

 protected:
  void TickProgress() { progress_.fetch_add(1, std::memory_order_relaxed); }

  /// True once the attached cancel token (if any) was flipped.
  bool CancelRequested() const {
    return cancel_ != nullptr && cancel_->load(std::memory_order_acquire);
  }

  /// Copies the current stats into the attached RunBoard slot so the
  /// debug server's /statusz shows live per-operator progress. Call after
  /// each completed work unit (chunk/bucket/cell); no-op without a board.
  void PublishLive();

 private:
  std::string name_;
  FailurePolicy failure_policy_ = FailurePolicy::kFailFast;
  std::atomic<uint64_t> progress_{0};
  size_t live_slot_ = 0;
  OperatorStats stats_;
  ObsContext obs_;
  const std::atomic<bool>* cancel_ = nullptr;
};

/// Supervision knobs for one Executor::Run.
struct ExecutorOptions {
  /// Executor-level restarts granted per operator under kRetryOperator
  /// (operators must also SupportsRestart()).
  size_t max_retries = 0;

  /// Watchdog: abort when the pipeline-wide progress sum is unchanged for
  /// this long. 0 disables the watchdog. Must exceed the longest single
  /// compute step of any operator (e.g. one merge k-means fit).
  uint64_t op_timeout_ms = 0;

  /// Watchdog sampling interval.
  uint64_t watchdog_poll_ms = 10;
};

/// Per-operator outcome of a supervised run.
struct OperatorOutcome {
  std::string name;
  Status status;
  size_t restarts = 0;
  bool skipped = false;  // failed but tolerated under kSkipAndContinue
  OperatorStats stats;   // copied from the operator after its final Run()
};

/// What the supervision layer observed during Executor::Run.
struct ExecutorReport {
  std::vector<OperatorOutcome> operators;
  size_t total_restarts = 0;
  bool degraded = false;           // some operator was skipped
  std::string stalled_operators;   // set when the watchdog fired
};

/// Runs a set of operator instances to completion, one thread each.
class Executor {
 public:
  /// Adds an operator instance to the pipeline (before Run).
  void Add(std::unique_ptr<Operator> op) { ops_.push_back(std::move(op)); }

  size_t num_operators() const { return ops_.size(); }

  /// Executes every operator concurrently and joins them. If any operator
  /// fails, all operators are aborted and the first error is returned.
  Status Run() { return Run(ExecutorOptions{}); }

  /// Supervised execution: restarts restartable kRetryOperator operators
  /// up to `options.max_retries` times, tolerates kSkipAndContinue
  /// operator failures (recording them in report()), and aborts the
  /// pipeline with a DeadlineExceeded error when the watchdog detects no
  /// progress for `options.op_timeout_ms`.
  Status Run(const ExecutorOptions& options);

  /// Supervision outcome of the last Run().
  const ExecutorReport& report() const { return report_; }

 private:
  std::vector<std::unique_ptr<Operator>> ops_;
  ExecutorReport report_;
};

}  // namespace pmkm

#endif  // PMKM_STREAM_OPERATOR_H_
