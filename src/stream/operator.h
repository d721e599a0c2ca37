// Operator and Executor: the minimal Conquest-style execution environment.
//
// A pipeline is a set of operator instances connected by bounded queues;
// the executor runs each instance on its own thread (paper Fig. 3: data
// stream operators process data in a pipelined fashion). Cloning an
// operator = adding another instance that shares the same input and output
// queues; the queues' producer counting makes end-of-stream exact.
//
// Supervision: every operator retries a failed bucket read or chunk fit in
// place, as often as its retry budget allows, and then applies its
// FailurePolicy (fail the run, or quarantine the unit). The executor runs
// each operator once and is the one place that stops a pipeline: an
// operator error, a cancel token and a run deadline all end in the same
// abort, which cancels every queue. Operators never read the cancel token
// or the clock; they stop when their queues are cancelled, so a cancel or
// a missed deadline costs at most the chunk fit or cell merge in flight.

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

/// What an operator does when one of its work units (a bucket read, a
/// chunk fit, a cell merge) fails once its in-place retries (the run's
/// retry budget, under either policy) are spent. Errors that
/// IsRetryableStatus rejects, such as non-finite data, are never retried.
enum class FailurePolicy {
  /// Return the error; the pipeline aborts.
  kFailFast,
  /// Quarantine the bucket, drop the chunk or skip the cell, record it in
  /// the run report, and keep clustering everything healthy.
  kSkipAndContinue,
};

const char* FailurePolicyToString(FailurePolicy policy);

/// Parses "failfast" | "skip" (case-sensitive).
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

  /// Called by the executor exactly once after Run() returns (successful
  /// or not), after a fatal error has been recorded.
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

  /// Slot of this instance in the RunBoard layout declared by
  /// RunBoard::BeginRun (set by the engine together with set_obs when a
  /// debug server is attached).
  void set_live_slot(size_t slot) { live_slot_ = slot; }
  size_t live_slot() const { return live_slot_; }

  /// Execution accounting for this instance. Written by the operator's own
  /// executor thread during Run() and by the executor around it; read the
  /// copy in Executor::operator_stats after the pipeline joined.
  OperatorStats& mutable_stats() { return stats_; }

 protected:
  /// Copies the current stats into the attached RunBoard slot so the
  /// debug server's /statusz shows live per-operator progress. Call after
  /// each completed work unit (chunk/bucket/cell); no-op without a board.
  void PublishLive();

 private:
  std::string name_;
  FailurePolicy failure_policy_ = FailurePolicy::kFailFast;
  size_t live_slot_ = 0;
  OperatorStats stats_;
  ObsContext obs_;
};

/// Runs a set of operator instances to completion, one thread each. Each
/// thread's log lines carry its operator's obs().run_id (ScopedLogRunId,
/// common/logging.h).
class Executor {
 public:
  /// Adds an operator instance to the pipeline (before Run).
  void Add(std::unique_ptr<Operator> op) { ops_.push_back(std::move(op)); }

  size_t num_operators() const { return ops_.size(); }

  /// Executes every operator once, concurrently, and joins them. The
  /// first failure aborts all operators and is returned: an operator's
  /// error, Cancelled once `cancel` (nullable) is set (at entry: before
  /// any thread starts), or DeadlineExceeded once `deadline_ms` > 0
  /// milliseconds have passed since entry. With a token or a deadline,
  /// the calling thread supervises in 10 ms slices, checking the token
  /// first; without either, it only joins. The run returns after the
  /// work unit in flight when the abort lands.
  Status Run(const std::atomic<bool>* cancel = nullptr,
             uint64_t deadline_ms = 0);

  /// Each operator's stats after the last Run(), in Add() order.
  const std::vector<OperatorStats>& operator_stats() const {
    return operator_stats_;
  }

 private:
  std::vector<std::unique_ptr<Operator>> ops_;
  std::vector<OperatorStats> operator_stats_;
};

}  // namespace pmkm

#endif  // PMKM_STREAM_OPERATOR_H_
