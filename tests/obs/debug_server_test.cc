// DebugServer (obs/debug_server.h): endpoint rendering, the real HTTP
// surface over loopback sockets, slow-client bounds, and clean shutdown.

#include "obs/debug_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/runboard.h"
#include "obs/stats.h"
#include "obs/trace.h"

namespace pmkm {
namespace obs {
namespace {

// Minimal blocking HTTP client: sends `request` verbatim, returns the
// full response (headers + body) until the server closes the connection.
std::string RawRequest(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Get(int port, const std::string& target) {
  return RawRequest(port, "GET " + target + " HTTP/1.1\r\n"
                          "Host: localhost\r\nConnection: close\r\n\r\n");
}

std::string BodyOf(const std::string& response) {
  const size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

bool Contains(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

TEST(DebugServerTest, StartsOnEphemeralPortAndStops) {
  MetricsRegistry registry;
  DebugServer server(&registry, nullptr);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_FALSE(server.stopping());
  EXPECT_GT(server.port(), 0);
  server.Stop();
  EXPECT_TRUE(server.stopping());
  server.Stop();  // idempotent
}

TEST(DebugServerTest, StartTwiceFails) {
  DebugServer server(nullptr, nullptr);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_FALSE(server.Start().ok());
  server.Stop();
}

TEST(DebugServerTest, HealthzOverRealSocket) {
  DebugServer server(nullptr, nullptr);
  ASSERT_TRUE(server.Start().ok());
  const std::string response = Get(server.port(), "/healthz");
  EXPECT_TRUE(Contains(response, "HTTP/1.1 200 OK")) << response;
  EXPECT_TRUE(Contains(response, "Content-Length:")) << response;
  EXPECT_EQ(BodyOf(response), "ok\n");
  server.Stop();
}

TEST(DebugServerTest, MetricsEndpointServesPrometheusText) {
  MetricsRegistry registry;
  registry.counter("rows").Increment(7);
  DebugServer server(&registry, nullptr);
  ASSERT_TRUE(server.Start().ok());
  const std::string response = Get(server.port(), "/metrics");
  EXPECT_TRUE(Contains(response, "HTTP/1.1 200 OK")) << response;
  EXPECT_TRUE(Contains(response, "pmkm_rows 7")) << response;
  // Live scrape semantics: a second scrape sees newer values.
  registry.counter("rows").Increment(5);
  EXPECT_TRUE(Contains(Get(server.port(), "/metrics"), "pmkm_rows 12"));
  server.Stop();
}

TEST(DebugServerTest, RunzServesBoardStateAsJson) {
  DebugServer server(nullptr, nullptr);
  ASSERT_TRUE(server.Start().ok());
  server.board()->BeginRun("deadbeef", "chunk=1000", {"scan", "merge"});
  OperatorStats stats;
  stats.name = "scan";
  stats.rows_in = 123;
  server.board()->PublishOperator(0, stats);
  const std::string body = BodyOf(Get(server.port(), "/runz"));
  auto doc = JsonValue::Parse(body);
  ASSERT_TRUE(doc.ok()) << body;
  const JsonValue* run_id = doc->Find("run_id");
  ASSERT_NE(run_id, nullptr);
  EXPECT_EQ(run_id->AsString(), "deadbeef");
  server.board()->EndRun(true, "ok", JsonValue::Object());
  const std::string after = BodyOf(Get(server.port(), "/runz"));
  EXPECT_TRUE(Contains(after, "\"ok\"")) << after;
  server.Stop();
}

TEST(DebugServerTest, TracezServesRecentSpans) {
  TraceRecorder tracer;
  TraceEvent event;
  event.name = "merge.cell";
  event.category = "merge";
  event.start_us = 100;
  event.dur_us = 250;
  tracer.Add(std::move(event));
  DebugServer server(nullptr, &tracer);
  ASSERT_TRUE(server.Start().ok());
  const std::string body = BodyOf(Get(server.port(), "/tracez"));
  auto doc = JsonValue::Parse(body);
  ASSERT_TRUE(doc.ok()) << body;
  const JsonValue* events = doc->Find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), 1u);
  EXPECT_EQ(events->items().front().Find("name")->AsString(),
            "merge.cell");
  server.Stop();
}

TEST(DebugServerTest, UnknownPathIs404AndPostIs405) {
  DebugServer server(nullptr, nullptr);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(Contains(Get(server.port(), "/nope"), "404"));
  EXPECT_TRUE(Contains(
      RawRequest(server.port(),
                 "POST /healthz HTTP/1.1\r\nHost: x\r\n\r\n"),
      "405"));
  server.Stop();
}

TEST(DebugServerTest, HeadRequestOmitsBody) {
  DebugServer server(nullptr, nullptr);
  ASSERT_TRUE(server.Start().ok());
  const std::string response = RawRequest(
      server.port(), "HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_TRUE(Contains(response, "200 OK")) << response;
  EXPECT_TRUE(Contains(response, "Content-Length: 3")) << response;
  EXPECT_EQ(BodyOf(response), "");
  server.Stop();
}

TEST(DebugServerTest, OversizedRequestIsRejected) {
  DebugServer server(nullptr, nullptr);
  DebugServer::Options options;
  options.max_request_bytes = 128;
  ASSERT_TRUE(server.Start(options).ok());
  const std::string huge_target(4096, 'a');
  const std::string response = RawRequest(
      server.port(), "GET /" + huge_target + " HTTP/1.1\r\n\r\n");
  EXPECT_TRUE(Contains(response, "431")) << response.substr(0, 200);
  server.Stop();
}

TEST(DebugServerTest, SlowClientDoesNotWedgeTheServer) {
  DebugServer server(nullptr, nullptr);
  DebugServer::Options options;
  options.io_timeout_ms = 100;
  options.num_threads = 1;  // one stalled handler would block everything
  ASSERT_TRUE(server.Start(options).ok());
  // Open a connection and send nothing: the read timeout must reclaim
  // the single worker, after which a well-behaved request succeeds.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string response = Get(server.port(), "/healthz");
  EXPECT_TRUE(Contains(response, "200 OK")) << response;
  ::close(fd);
  server.Stop();
}

TEST(DebugServerTest, RenderResponseDispatch) {
  MetricsRegistry registry;
  registry.counter("rows").Increment(1);
  TraceRecorder tracer;
  DebugServer server(&registry, &tracer);
  // RenderResponse is the socket-free surface the schedcheck sweeps use;
  // it must work without Start().
  EXPECT_TRUE(Contains(server.RenderResponse("/"), "200 OK"));
  EXPECT_TRUE(Contains(server.RenderResponse("/healthz"), "ok"));
  EXPECT_TRUE(Contains(server.RenderResponse("/metrics"), "pmkm_rows"));
  EXPECT_TRUE(Contains(server.RenderResponse("/statusz"), "uptime"));
  EXPECT_TRUE(Contains(server.RenderResponse("/runz"), "active"));
  EXPECT_TRUE(Contains(server.RenderResponse("/tracez"), "events"));
  EXPECT_TRUE(Contains(server.RenderResponse("/pprofz"), "200 OK"));
  EXPECT_TRUE(Contains(server.RenderResponse("/missing"), "404"));
  // Query strings are ignored for dispatch.
  EXPECT_TRUE(Contains(server.RenderResponse("/healthz?x=1"), "ok"));
}

TEST(DebugServerTest, NullSinksServePlaceholders) {
  DebugServer server(nullptr, nullptr);
  EXPECT_TRUE(
      Contains(server.RenderResponse("/metrics"), "not collected"));
  EXPECT_TRUE(Contains(server.RenderResponse("/tracez"), "events"));
}

}  // namespace
}  // namespace obs
}  // namespace pmkm
