#include "obs/runboard.h"

#include <chrono>
#include <utility>

namespace pmkm {
namespace obs {

namespace {

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void RunBoard::BeginRun(const std::string& run_id,
                        const std::string& plan_summary,
                        const std::vector<std::string>& operator_names) {
  MutexLock lock(mu_);
  PMKM_SCHED_POINT("runboard.begin");
  active_ = true;
  run_id_ = run_id;
  plan_summary_ = plan_summary;
  run_started_micros_ = NowMicros();
  ++runs_started_;
  operators_.clear();
  operators_.reserve(operator_names.size());
  for (const std::string& name : operator_names) {
    OperatorStats stats;
    stats.name = name;
    operators_.push_back(std::move(stats));
  }
  have_result_ = false;
}

void RunBoard::PublishOperator(const std::string& run_id, size_t slot,
                               const OperatorStats& stats) {
  MutexLock lock(mu_);
  PMKM_SCHED_POINT("runboard.publish");
  if (run_id != run_id_ || slot >= operators_.size()) return;
  operators_[slot] = stats;
}

void RunBoard::EndRun(const std::string& run_id, bool ok,
                      const std::string& status_message, JsonValue result) {
  MutexLock lock(mu_);
  PMKM_SCHED_POINT("runboard.end");
  if (run_id != run_id_) return;
  active_ = false;
  last_ok_ = ok;
  last_status_ = status_message;
  result_ = std::move(result);
  have_result_ = true;
  ++runs_completed_;
}

RunBoard::StatusSnapshot RunBoard::TakeStatus() const {
  MutexLock lock(mu_);
  PMKM_SCHED_POINT("runboard.read");
  StatusSnapshot out;
  out.active = active_;
  out.run_id = run_id_;
  out.plan_summary = plan_summary_;
  if (active_ && run_started_micros_ != 0) {
    out.run_elapsed_seconds =
        static_cast<double>(NowMicros() - run_started_micros_) / 1e6;
  }
  out.runs_started = runs_started_;
  out.runs_completed = runs_completed_;
  out.last_status = last_status_;
  out.operators = operators_;
  return out;
}

JsonValue RunBoard::ToJson() const {
  MutexLock lock(mu_);
  PMKM_SCHED_POINT("runboard.read");
  JsonValue root = JsonValue::Object();
  root.Set("active", active_);
  root.Set("run_id", run_id_);
  root.Set("plan", plan_summary_);
  root.Set("runs_started", runs_started_);
  root.Set("runs_completed", runs_completed_);
  if (runs_completed_ > 0) {
    root.Set("last_run_ok", last_ok_);
    root.Set("last_run_status", last_status_);
  }
  JsonValue operators = JsonValue::Array();
  for (const OperatorStats& stats : operators_) {
    operators.Append(stats.ToJson());
  }
  root.Set("operators", std::move(operators));
  if (have_result_) root.Set("result", result_);
  return root;
}

}  // namespace obs
}  // namespace pmkm
