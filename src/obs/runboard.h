// RunBoard: the live run state the debug server serves.
//
// The engine publishes into the board as a run progresses — BeginRun with
// the run id and plan summary, per-operator OperatorStats copies after
// every chunk/cell, and EndRun with the full result JSON, whose report
// carries the checkpoint numbers — and the server's /statusz and /runz
// handlers read consistent snapshots out. It shows the most recently
// started run, and ignores publishes and EndRun from any other
// (pmkm_serve's workers share one board). The board deliberately speaks
// only obs-layer types (OperatorStats, JsonValue): the stream layer
// converts its StreamRunResult to JSON before publishing, so obs stays
// free of stream dependencies.
//
// Cost model: operators publish once per chunk/cell (hundreds to
// thousands of times per run), each publish copying one OperatorStats
// under the board mutex — far off the per-point hot path. A pipeline
// without a debug server has a null board pointer and pays one pointer
// test per potential publish.

#ifndef PMKM_OBS_RUNBOARD_H_
#define PMKM_OBS_RUNBOARD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "obs/json.h"
#include "obs/stats.h"

namespace pmkm {
namespace obs {

class RunBoard {
 public:
  /// Starts a new run on the board: clears the live operator table and
  /// remembers the identity. `operator_names` fixes the table layout;
  /// operators publish into their slot index.
  void BeginRun(const std::string& run_id, const std::string& plan_summary,
                const std::vector<std::string>& operator_names)
      PMKM_EXCLUDES(mu_);

  /// Live per-operator stats; `slot` indexes into the BeginRun layout.
  /// Called by the operator's own executor thread after each work unit.
  void PublishOperator(const std::string& run_id, size_t slot,
                       const OperatorStats& stats) PMKM_EXCLUDES(mu_);

  /// Ends the shown run. `result` is the full StreamRunResult JSON (or
  /// an error object for a failed run); it stays served by /runz until
  /// the next BeginRun.
  void EndRun(const std::string& run_id, bool ok,
              const std::string& status_message, JsonValue result)
      PMKM_EXCLUDES(mu_);

  /// Consistent copy of the live table for /statusz.
  struct StatusSnapshot {
    bool active = false;
    std::string run_id;
    std::string plan_summary;
    double run_elapsed_seconds = 0.0;  // since BeginRun (active runs)
    uint64_t runs_started = 0;
    uint64_t runs_completed = 0;
    std::string last_status;  // EndRun message of the last finished run
    std::vector<OperatorStats> operators;
  };
  StatusSnapshot TakeStatus() const PMKM_EXCLUDES(mu_);

  /// /runz payload: {"active":..., "run_id":..., "operators":[...],
  /// "result": <last EndRun JSON>}; a run's checkpoint numbers are in
  /// result.report.checkpoint.
  JsonValue ToJson() const PMKM_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  bool active_ PMKM_GUARDED_BY(mu_) = false;
  std::string run_id_ PMKM_GUARDED_BY(mu_);
  std::string plan_summary_ PMKM_GUARDED_BY(mu_);
  uint64_t run_started_micros_ PMKM_GUARDED_BY(mu_) = 0;
  uint64_t runs_started_ PMKM_GUARDED_BY(mu_) = 0;
  uint64_t runs_completed_ PMKM_GUARDED_BY(mu_) = 0;
  std::string last_status_ PMKM_GUARDED_BY(mu_);
  bool last_ok_ PMKM_GUARDED_BY(mu_) = false;
  std::vector<OperatorStats> operators_ PMKM_GUARDED_BY(mu_);
  JsonValue result_ PMKM_GUARDED_BY(mu_);
  bool have_result_ PMKM_GUARDED_BY(mu_) = false;
};

}  // namespace obs
}  // namespace pmkm

#endif  // PMKM_OBS_RUNBOARD_H_
