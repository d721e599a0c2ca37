// Leveled, structured logging plus CHECK macros.
//
// Every line carries a UTC timestamp, level, source location and (when
// set) the per-run id that also tags metrics/trace/checkpoint artifacts.
// Two wire formats, switchable at runtime (`pmkm_cluster
// --log_format=json`):
//
//   text:  [WARN 2026-08-08T12:00:01.234Z ops.cc:217 run=1f2e...] msg
//   json:  {"ts":"...","level":"WARN","src":"ops.cc:217",
//           "run_id":"1f2e...","msg":"..."}
//
// Library code logs only at kWarning and above. Hot-path warnings go
// through PMKM_LOG_RATELIMITED(level, per_sec): a per-call-site token
// bucket that drops excess lines (cheaply — stream arguments are not
// evaluated for dropped lines) and prefixes the next emitted line with
// how many were suppressed. PMKM_CHECK* are for programmer-error
// invariants that must hold regardless of build type (they are not
// compiled out).

#ifndef PMKM_COMMON_LOGGING_H_
#define PMKM_COMMON_LOGGING_H_

#include <atomic>
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

/// Tags every subsequent log line with the run id (empty = untagged).
/// The same id should tag the metrics registry, trace and checkpoint
/// artifacts of the run (PipelineBuilder::WithRunId wires all of them).
void SetLogRunId(const std::string& run_id);
std::string GetLogRunId();

namespace internal {

/// "2026-08-08T12:00:01.234Z" (UTC) for a unix-epoch millisecond count.
std::string FormatLogTimestamp(int64_t unix_millis);

/// Renders one complete log line (no trailing newline) in the given
/// format. Pure function — the unit under test for both wire formats.
std::string RenderLogLine(LogLevel level, const char* file_base, int line,
                          const std::string& msg, LogFormat format,
                          const std::string& run_id, int64_t unix_millis);

/// Lazy token bucket for per-call-site log rate limiting. Lock-free: the
/// state is one atomic "next token available at" timestamp, allowed to
/// lag `burst` tokens behind now.
class LogTokenBucket {
 public:
  static constexpr uint64_t kDenied = ~uint64_t{0};

  explicit LogTokenBucket(double per_second, double burst = 5.0);

  /// Returns kDenied when the line should be dropped; otherwise the
  /// number of lines dropped since the last emitted one.
  uint64_t Acquire();
  uint64_t AcquireAt(int64_t now_micros);

 private:
  int64_t cost_micros_;   // micros per token
  int64_t burst_micros_;  // how far available_at_ may lag behind now
  std::atomic<int64_t> available_at_{0};
  std::atomic<uint64_t> suppressed_{0};
};

/// "" when nothing was suppressed, "(suppressed N similar lines) "
/// otherwise — prefixed to the first line after a rate-limit gap.
std::string SuppressedTag(uint64_t suppressed);

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

/// Rate-limited logging for hot paths: at most `per_sec` lines per second
/// per call site (small burst tolerated). Dropped lines cost one atomic
/// CAS; their stream arguments are not evaluated.
#define PMKM_LOG_RATELIMITED(level, per_sec)                           \
  for (uint64_t pmkm_rl_sup = ([]() -> uint64_t {                      \
         static ::pmkm::internal::LogTokenBucket pmkm_rl_bucket(       \
             per_sec);                                                 \
         return pmkm_rl_bucket.Acquire();                              \
       })();                                                           \
       pmkm_rl_sup != ::pmkm::internal::LogTokenBucket::kDenied;       \
       pmkm_rl_sup = ::pmkm::internal::LogTokenBucket::kDenied)        \
  PMKM_LOG(level) << ::pmkm::internal::SuppressedTag(pmkm_rl_sup)

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
