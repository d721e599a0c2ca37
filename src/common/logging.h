// Leveled, structured logging plus CHECK macros.
//
// Every line carries a UTC timestamp, level, source location and (when
// set) the id of the run whose thread wrote it, which also tags that
// run's metrics/trace/checkpoint artifacts.
// Two wire formats, switchable at runtime (`pmkm_cluster
// --log_format=json`):
//
//   text:  [WARN 2026-08-08T12:00:01.234Z ops.cc:217 run=1f2e...] msg
//   json:  {"ts":"...","level":"WARN","src":"ops.cc:217",
//           "run_id":"1f2e...","msg":"..."}
//
// Library code logs only at kWarning and above. PMKM_CHECK* are for
// programmer-error invariants that must hold regardless of build type
// (they are not compiled out).

#ifndef PMKM_COMMON_LOGGING_H_
#define PMKM_COMMON_LOGGING_H_

#include <cstdint>
#include <sstream>
#include <string>

namespace pmkm {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kFatal = 4,
};

/// Messages below kInfo are discarded.
enum class LogFormat : int {
  kText = 0,
  kJson = 1,
};

/// Global wire format for the stderr sink. Default: kText.
void SetLogFormat(LogFormat format);
LogFormat GetLogFormat();

/// Parses "text" | "json".
bool ParseLogFormat(const std::string& name, LogFormat* out);

/// Sets the process default run id (empty = untagged): it tags the log
/// lines written outside any run (`--run_id`, ObsFlags::Apply). A line
/// written inside a run carries that run's id instead (ScopedLogRunId).
void SetLogRunId(const std::string& run_id);

/// Tags the log lines the calling thread writes with `run_id` while in
/// scope, over the process default, and restores the thread's previous
/// tag on exit; an empty id leaves the tag as it was. PipelineBuilder::Run
/// holds one on its calling thread and the Executor one on each operator
/// thread, so the concurrent runs of one process (the serve daemon's
/// workers) each log under their own id.
class ScopedLogRunId {
 public:
  explicit ScopedLogRunId(std::string run_id);
  ~ScopedLogRunId();

  ScopedLogRunId(const ScopedLogRunId&) = delete;
  ScopedLogRunId& operator=(const ScopedLogRunId&) = delete;

 private:
  const std::string run_id_;
  const std::string* previous_;
};

namespace internal {

/// "2026-08-08T12:00:01.234Z" (UTC) for a unix-epoch millisecond count.
std::string FormatLogTimestamp(int64_t unix_millis);

/// Renders one complete log line (no trailing newline) in the given
/// format. Pure function — the unit under test for both wire formats.
std::string RenderLogLine(LogLevel level, const char* file_base, int line,
                          const std::string& msg, LogFormat format,
                          const std::string& run_id, int64_t unix_millis);

/// Accumulates one log line and emits it (to stderr) on destruction.
/// A kFatal message aborts the process after emitting.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    if (enabled_) stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  bool enabled_;
  const char* file_base_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace pmkm

#define PMKM_LOG(level)                                              \
  ::pmkm::internal::LogMessage(::pmkm::LogLevel::k##level, __FILE__, \
                               __LINE__)

#define PMKM_CHECK(cond)                                      \
  if (!(cond))                                                \
  PMKM_LOG(Fatal) << "Check failed: " #cond " "

#define PMKM_CHECK_OK(expr)                                   \
  do {                                                        \
    ::pmkm::Status _st = (expr);                              \
    if (!_st.ok())                                            \
      PMKM_LOG(Fatal) << "Check failed (status): "            \
                      << _st.ToString();                      \
  } while (false)

#define PMKM_DCHECK(cond) PMKM_CHECK(cond)

#endif  // PMKM_COMMON_LOGGING_H_
