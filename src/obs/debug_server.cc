#include "obs/debug_server.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <sstream>

#include "common/net.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/rolling.h"
#include "obs/trace.h"

namespace pmkm {
namespace obs {

namespace {

// Spans served by /tracez (most recent first in the ring).
constexpr size_t kTracezEvents = 256;

constexpr char kTextPlain[] = "text/plain; charset=utf-8";

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* StatusLine(int http_status) {
  switch (http_status) {
    case 200:
      return "200 OK";
    case 404:
      return "404 Not Found";
    case 405:
      return "405 Method Not Allowed";
    case 431:
      return "431 Request Header Fields Too Large";
    default:
      return "500 Internal Server Error";
  }
}

std::string BuildResponse(int http_status, const std::string& content_type,
                          const std::string& body) {
  std::string out = "HTTP/1.1 ";
  out += StatusLine(http_status);
  out += "\r\nContent-Type: " + content_type;
  out += "\r\nContent-Length: " + std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

DebugServer::DebugServer(MetricsRegistry* metrics, TraceRecorder* trace)
    : metrics_(metrics), trace_(trace), started_micros_(NowMicros()) {}

DebugServer::~DebugServer() { Stop(); }

Status DebugServer::Start(const Options& options) {
  if (!stopping()) {
    return Status::FailedPrecondition("debug server already running");
  }
  options_ = options;
  PMKM_RETURN_NOT_OK(ConnectionServer::Start(
      "127.0.0.1:" + std::to_string(options.port), options.num_threads,
      options.io_timeout_ms));
  const std::string& endpoint = bound_endpoint();
  port_ = std::atoi(endpoint.c_str() + endpoint.rfind(':') + 1);
  return Status::OK();
}

void DebugServer::HandleConnection(int fd) {
  // Read until the end of the request headers, a timeout, or the cap.
  // Every read and write is bounded by options_.io_timeout_ms, which
  // ConnectionServer sets on the socket before this handler runs.
  std::string request;
  uint8_t buf[2048];
  while (request.size() <= options_.max_request_bytes &&
         request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos) {
    // pmkm-ctxcheck: allow(bounded-handler)  (SO_RCVTIMEO-bounded)
    const Result<size_t> n = ReadSome(fd, buf);
    if (!n.ok() || n.value() == 0) {  // timeout, reset, or early close
      CloseFd(fd);
      return;
    }
    request.append(reinterpret_cast<const char*>(buf), n.value());
  }
  const std::string response =
      request.size() > options_.max_request_bytes
          ? BuildResponse(431, kTextPlain, "request too large\n")
          : Respond(request);
  // pmkm-ctxcheck: allow(bounded-handler)  (SO_SNDTIMEO-bounded)
  (void)WriteAll(fd, std::span<const uint8_t>(
                         reinterpret_cast<const uint8_t*>(response.data()),
                         response.size()));
  CloseFd(fd);
}

std::string DebugServer::Respond(const std::string& request) const {
  // Request line: METHOD SP target SP version.
  const size_t line_end = request.find_first_of("\r\n");
  std::istringstream line(request.substr(0, line_end));
  std::string method;
  std::string target;
  line >> method >> target;
  if (method != "GET" && method != "HEAD") {
    return BuildResponse(405, kTextPlain, "only GET is supported\n");
  }
  std::string response = RenderResponse(target);
  if (method == "HEAD") {
    const size_t header_end = response.find("\r\n\r\n");
    if (header_end != std::string::npos) response.resize(header_end + 4);
  }
  return response;
}

void DebugServer::RegisterEndpoint(const std::string& path,
                                   const std::string& description,
                                   const std::string& content_type,
                                   EndpointHandler handler) {
  MutexLock lock(mu_);
  endpoints_[path] = Endpoint{description, content_type, std::move(handler)};
}

std::string DebugServer::RenderResponse(const std::string& target) const {
  // Strip the query string; no endpoint takes parameters yet.
  std::string path = target.substr(0, target.find('?'));
  if (path.empty()) path = "/";
  std::string content_type = kTextPlain;
  int http_status = 200;
  const std::string body = RenderBody(path, &content_type, &http_status);
  return BuildResponse(http_status, content_type, body);
}

std::string DebugServer::RenderBody(const std::string& path,
                                    std::string* content_type,
                                    int* http_status) const {
  if (path == "/" || path == "/index" || path == "/index.html") {
    return RenderIndex();
  }
  if (path == "/healthz") {
    return "ok\n";
  }
  if (path == "/metrics") {
    if (metrics_ == nullptr) return "# metrics not collected\n";
    return metrics_->ToPrometheusText();
  }
  if (path == "/statusz") {
    return RenderStatusz();
  }
  if (path == "/runz") {
    *content_type = "application/json";
    return board_.ToJson().Dump(2) + "\n";
  }
  if (path == "/tracez") {
    *content_type = "application/json";
    return RenderTracez();
  }
  if (path == "/pprofz") {
    const CpuProfiler& profiler = CpuProfiler::Global();
    std::string folded = profiler.FoldedStacks();
    if (folded.empty()) {
      return "# no profile samples; start the process with --profile_out "
             "(or CpuProfiler::Start) to sample\n";
    }
    return folded;
  }
  // Host-registered endpoints. Copy the entry out so the handler runs
  // without holding mu_ (it may be slow or take its own locks).
  Endpoint endpoint;
  bool found = false;
  {
    MutexLock lock(mu_);
    auto it = endpoints_.find(path);
    if (it != endpoints_.end()) {
      endpoint = it->second;
      found = true;
    }
  }
  if (found && endpoint.handler != nullptr) {
    *content_type = endpoint.content_type;
    // Mounted endpoint handlers are in-process renderers (metrics/status
    // snapshots under short locks) — no socket or file I/O. The contract
    // is documented on RegisterEndpoint; the analyzer cannot see through
    // the std::function.
    // pmkm-ctxcheck: allow(bounded-handler)
    return endpoint.handler();
  }
  *http_status = 404;
  return "not found: " + path + "\n";
}

std::string DebugServer::RenderIndex() const {
  std::string out =
      "pmkm debug server\n"
      "\n"
      "  /metrics   Prometheus exposition (rolling window quantiles "
      "included)\n"
      "  /statusz   build info, uptime, live per-operator stats\n"
      "  /runz      current/most recent run as JSON\n"
      "  /tracez    recent trace spans as JSON\n"
      "  /pprofz    folded-stack CPU profile (flamegraph input)\n"
      "  /healthz   liveness probe\n";
  MutexLock lock(mu_);
  for (const auto& [path, endpoint] : endpoints_) {
    out += "  " + path;
    if (path.size() < 9) out.append(9 - path.size(), ' ');
    out += "  " + endpoint.description + "\n";
  }
  return out;
}

std::string DebugServer::RenderStatusz() const {
  const RunBoard::StatusSnapshot status = board_.TakeStatus();
  std::ostringstream out;
  out << "pmkm debug server\n";
  out << "build: " << __VERSION__ << "\n";
  out << "uptime_seconds: "
      << FormatDouble(
             static_cast<double>(NowMicros() - started_micros_) / 1e6)
      << "\n";
  out << "\n";
  if (status.runs_started == 0) {
    out << "no run published yet\n";
  } else {
    out << "run: " << (status.run_id.empty() ? "-" : status.run_id)
        << (status.active ? " ACTIVE" : " finished");
    if (status.active) {
      out << " (" << FormatDouble(status.run_elapsed_seconds) << "s)";
    }
    out << "\n";
    if (!status.plan_summary.empty()) {
      out << "plan: " << status.plan_summary << "\n";
    }
    out << "runs: " << status.runs_started << " started, "
        << status.runs_completed << " completed\n";
    if (!status.last_status.empty()) {
      out << "last_run: " << status.last_status << "\n";
    }
    out << "\noperators:\n";
    for (const OperatorStats& stats : status.operators) {
      out << "  " << stats.ToString() << "\n";
    }
  }
  if (metrics_ != nullptr) {
    const JsonValue all = metrics_->ToJson();
    const JsonValue* rolling = all.Find("rolling");
    if (rolling != nullptr && !rolling->members().empty()) {
      out << "\nrolling windows:\n";
      for (const auto& [name, entry] : rolling->members()) {
        const JsonValue* p50 = entry.Find("p50");
        const JsonValue* p99 = entry.Find("p99");
        const JsonValue* count = entry.Find("count");
        const JsonValue* window = entry.Find("window_seconds");
        out << "  " << name << ": ";
        if (count != nullptr) out << "n=" << count->Dump() << " ";
        if (p50 != nullptr) out << "p50=" << p50->Dump() << " ";
        if (p99 != nullptr) out << "p99=" << p99->Dump() << " ";
        if (window != nullptr) {
          out << "(last " << window->Dump() << "s)";
        }
        out << "\n";
      }
    }
  }
  return out.str();
}

std::string DebugServer::RenderTracez() const {
  JsonValue root = JsonValue::Object();
  if (trace_ == nullptr) {
    root.Set("events", JsonValue::Array());
    root.Set("note", "tracing not enabled");
    return root.Dump(2) + "\n";
  }
  JsonValue events = JsonValue::Array();
  for (const TraceEvent& e : trace_->Recent(kTracezEvents)) {
    JsonValue j = JsonValue::Object();
    j.Set("name", e.name);
    j.Set("cat", e.category);
    j.Set("ts_us", e.start_us);
    j.Set("dur_us", e.dur_us);
    j.Set("tid", e.tid);
    events.Append(std::move(j));
  }
  root.Set("events", std::move(events));
  root.Set("dropped", trace_->dropped());
  return root.Dump(2) + "\n";
}

}  // namespace obs
}  // namespace pmkm
