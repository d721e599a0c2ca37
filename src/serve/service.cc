#include "serve/service.h"

#include <string>

namespace pmkm {
namespace serve {

const char* JobStateToString(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

Status AwaitDeadlineExceeded(uint64_t job_id, JobState state,
                             uint64_t timeout_ms) {
  return Status::DeadlineExceeded("job " + std::to_string(job_id) +
                                  " still " + JobStateToString(state) +
                                  " after " + std::to_string(timeout_ms) +
                                  "ms");
}

}  // namespace serve
}  // namespace pmkm
