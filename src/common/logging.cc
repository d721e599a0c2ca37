#include "common/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <utility>

#include "common/annotations.h"

namespace pmkm {
namespace {

std::atomic<int> g_format{static_cast<int>(LogFormat::kText)};

// Serializes whole lines so concurrent operator threads do not interleave.
// An annotated Mutex (not a raw std::mutex) so the schedcheck hooks see
// the sink as a sync point like every other lock in the project.
Mutex& LogMutex() {
  static Mutex m;
  return m;
}

// The process default run id is read on every emitted line (sink already
// serialized), so it shares the sink mutex instead of adding a second
// lock.
std::string& RunIdStorage() {
  static std::string id;
  return id;
}

// The calling thread's run id while a ScopedLogRunId is in scope; null
// means the process default.
thread_local const std::string* t_run_id = nullptr;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

// Minimal JSON string escaping (common/ cannot depend on obs/json.h —
// the obs library links against this one).
std::string JsonEscapeMinimal(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c) & 0xff);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

int64_t NowUnixMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void SetLogFormat(LogFormat format) {
  g_format.store(static_cast<int>(format), std::memory_order_relaxed);
}

LogFormat GetLogFormat() {
  return static_cast<LogFormat>(g_format.load(std::memory_order_relaxed));
}

bool ParseLogFormat(const std::string& name, LogFormat* out) {
  if (name == "text") {
    *out = LogFormat::kText;
    return true;
  }
  if (name == "json") {
    *out = LogFormat::kJson;
    return true;
  }
  return false;
}

void SetLogRunId(const std::string& run_id) {
  MutexLock lock(LogMutex());
  RunIdStorage() = run_id;
}

ScopedLogRunId::ScopedLogRunId(std::string run_id)
    : run_id_(std::move(run_id)), previous_(t_run_id) {
  if (!run_id_.empty()) t_run_id = &run_id_;
}

ScopedLogRunId::~ScopedLogRunId() { t_run_id = previous_; }

namespace internal {

std::string FormatLogTimestamp(int64_t unix_millis) {
  // Floor division: C++ / and % truncate toward zero, which would render
  // 1 ms before the epoch as second 0 with millisecond -1.
  int64_t secs = unix_millis / 1000;
  int64_t millis = unix_millis % 1000;
  if (millis < 0) {
    --secs;
    millis += 1000;
  }
  const time_t time = static_cast<time_t>(secs);
  std::tm tm_utc{};
  gmtime_r(&time, &tm_utc);
  // Room for every int field at full width: any year fits.
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm_utc.tm_year + 1900, tm_utc.tm_mon + 1, tm_utc.tm_mday,
                tm_utc.tm_hour, tm_utc.tm_min, tm_utc.tm_sec,
                static_cast<int>(millis));
  return buf;
}

std::string RenderLogLine(LogLevel level, const char* file_base, int line,
                          const std::string& msg, LogFormat format,
                          const std::string& run_id, int64_t unix_millis) {
  const std::string ts = FormatLogTimestamp(unix_millis);
  const std::string src =
      std::string(file_base) + ":" + std::to_string(line);
  if (format == LogFormat::kJson) {
    std::string out = "{\"ts\":\"" + ts + "\",\"level\":\"" +
                      LevelName(level) + "\",\"src\":\"" +
                      JsonEscapeMinimal(src) + "\"";
    if (!run_id.empty()) {
      out += ",\"run_id\":\"" + JsonEscapeMinimal(run_id) + "\"";
    }
    out += ",\"msg\":\"" + JsonEscapeMinimal(msg) + "\"}";
    return out;
  }
  std::string out = "[" + std::string(LevelName(level)) + " " + ts + " " +
                    src;
  if (!run_id.empty()) out += " run=" + run_id;
  out += "] " + msg;
  return out;
}

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level),
      enabled_(level >= LogLevel::kInfo),
      file_base_(file),
      line_(line) {
  if (enabled_) {
    for (const char* p = file; *p; ++p) {
      if (*p == '/') file_base_ = p + 1;
    }
  }
}

LogMessage::~LogMessage() {
  if (enabled_) {
    const int64_t now_ms = NowUnixMillis();
    const LogFormat format = GetLogFormat();
    const std::string* scoped_run_id = t_run_id;
    MutexLock lock(LogMutex());
    const std::string rendered = RenderLogLine(
        level_, file_base_, line_, stream_.str(), format,
        scoped_run_id != nullptr ? *scoped_run_id : RunIdStorage(), now_ms);
    // The logging sink itself: the one sanctioned stderr writer. LogMutex
    // exists solely to keep these lines interleaving-free, so the write
    // IS the critical section; nothing else ever blocks under it.
    // pmkm-ctxcheck: allow(no-block-under-lock)
    std::cerr << rendered << std::endl;
  }
  if (level_ == LogLevel::kFatal) std::abort();
}

}  // namespace internal
}  // namespace pmkm
