// ConnectionServer (common/connection_server.h): the listener contract,
// run against both servers built on it (DebugServer and ServeDaemon, each
// with one handler thread and a short io timeout), and the accept
// back-off that keeps a full fd table from spinning the accept loop.

#include "common/connection_server.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/net.h"
#include "obs/debug_server.h"
#include "serve/daemon.h"
#include "serve/remote_service.h"

namespace pmkm {
namespace {

constexpr int kIoTimeoutMs = 200;
// Client-side read bound: a server that never answers fails the test
// instead of hanging it.
constexpr int kClientTimeoutMs = 5000;

using Clock = std::chrono::steady_clock;

int64_t MillisSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             Clock::now() - start)
      .count();
}

std::span<const uint8_t> AsBytes(const std::string& text) {
  return {reinterpret_cast<const uint8_t*>(text.data()), text.size()};
}

// Reads `fd` to EOF. False if the read times out or fails first.
bool ReadToEof(int fd, std::string* out) {
  if (!SetIoTimeout(fd, kClientTimeoutMs).ok()) return false;
  uint8_t buf[4096];
  while (true) {
    const Result<size_t> n = ReadSome(fd, buf);
    if (!n.ok()) return false;
    if (n.value() == 0) return true;
    out->append(reinterpret_cast<const char*>(buf), n.value());
  }
}

// Dials `endpoint` and sends `request`; -1 on failure.
int SendRequest(const std::string& endpoint, const std::string& request) {
  const Result<int> fd = DialEndpoint(endpoint);
  if (!fd.ok()) return -1;
  if (!WriteAll(fd.value(), AsBytes(request)).ok()) {
    CloseFd(fd.value());
    return -1;
  }
  return fd.value();
}

struct DebugServerHarness {
  DebugServerHarness() {
    // Parks its handler for a while, so a test can act mid-connection.
    server->RegisterEndpoint("/slow", "parks its handler", "text/plain",
                             [this] {
                               entered.set_value();
                               std::this_thread::sleep_for(
                                   std::chrono::milliseconds(100));
                               return std::string("slow\n");
                             });
  }
  ~DebugServerHarness() { CloseFd(client); }

  Status Start() {
    obs::DebugServer::Options options;
    options.num_threads = 1;
    options.io_timeout_ms = kIoTimeoutMs;
    return server->Start(options);
  }
  void Stop() { server->Stop(); }

  /// One GET /healthz on a fresh connection.
  bool Served() {
    const int fd = SendRequest(server->bound_endpoint(),
                               "GET /healthz HTTP/1.1\r\n\r\n");
    if (fd < 0) return false;
    std::string response;
    const bool done = ReadToEof(fd, &response);
    CloseFd(fd);
    return done && response.find("200 OK") != std::string::npos;
  }

  /// Returns once a handler is inside a request.
  bool Engage() {
    client = SendRequest(server->bound_endpoint(),
                         "GET /slow HTTP/1.1\r\n\r\n");
    return client >= 0 &&
           entered.get_future().wait_for(std::chrono::milliseconds(
               kClientTimeoutMs)) == std::future_status::ready;
  }

  // Declared before `server`, which dies first and so joins the handler
  // that sets it.
  std::promise<void> entered;
  std::unique_ptr<obs::DebugServer> server =
      std::make_unique<obs::DebugServer>(nullptr, nullptr);
  int client = -1;
};

struct ServeDaemonHarness {
  Status Start() {
    serve::DaemonOptions options;
    options.endpoint = "127.0.0.1:0";
    options.num_handler_threads = 1;
    options.io_timeout_ms = kIoTimeoutMs;
    options.service.num_workers = 1;
    return server->Start(options);
  }
  void Stop() { server->Stop(); }

  /// Hello exchange plus one kPing on a fresh connection.
  bool Served() {
    serve::RemoteService remote;
    return remote.Connect(server->bound_endpoint()).ok() &&
           remote.Ping().ok();
  }

  /// Returns once a handler is inside a session: the daemon has answered
  /// the hello and now waits for a request frame.
  bool Engage() { return client.Connect(server->bound_endpoint()).ok(); }

  serve::RemoteService client;
  std::unique_ptr<serve::ServeDaemon> server =
      std::make_unique<serve::ServeDaemon>();
};

template <typename Harness>
class ListenerContractTest : public ::testing::Test {
 protected:
  Harness harness_;
};

using Servers = ::testing::Types<DebugServerHarness, ServeDaemonHarness>;
TYPED_TEST_SUITE(ListenerContractTest, Servers);

TYPED_TEST(ListenerContractTest, IdleClientIsCutOffThenTheNextIsServed) {
  auto& h = this->harness_;
  ASSERT_TRUE(h.Start().ok());
  const Result<int> idle = DialEndpoint(h.server->bound_endpoint());
  ASSERT_TRUE(idle.ok());
  // The one handler holds the idle connection until its io timeout; the
  // next client waits in the backlog, then is served.
  const Clock::time_point start = Clock::now();
  EXPECT_TRUE(h.Served());
  EXPECT_GE(MillisSince(start), kIoTimeoutMs / 2);
  std::string unread;
  EXPECT_TRUE(ReadToEof(idle.value(), &unread));  // cut off: EOF
  CloseFd(idle.value());
}

TYPED_TEST(ListenerContractTest, StopWithAnIdleConnectionReturnsPromptly) {
  auto& h = this->harness_;
  ASSERT_TRUE(h.Start().ok());
  const Result<int> idle = DialEndpoint(h.server->bound_endpoint());
  ASSERT_TRUE(idle.ok());
  const Clock::time_point start = Clock::now();
  h.Stop();
  EXPECT_LT(MillisSince(start), kIoTimeoutMs + 1000);
  EXPECT_TRUE(h.server->stopping());
  CloseFd(idle.value());
}

TYPED_TEST(ListenerContractTest, SecondStartIsFailedPrecondition) {
  auto& h = this->harness_;
  ASSERT_TRUE(h.Start().ok());
  const Status again = h.Start();
  EXPECT_TRUE(again.IsFailedPrecondition()) << again.ToString();
  EXPECT_TRUE(h.Served());  // the first Start keeps serving
}

TYPED_TEST(ListenerContractTest, StopIsIdempotent) {
  auto& h = this->harness_;
  h.Stop();  // never started
  ASSERT_TRUE(h.Start().ok());
  EXPECT_FALSE(h.server->stopping());
  h.Stop();
  h.Stop();
  EXPECT_TRUE(h.server->stopping());
  EXPECT_FALSE(h.Served());
  // A stopped server starts again.
  ASSERT_TRUE(h.Start().ok());
  EXPECT_TRUE(h.Served());
}

TYPED_TEST(ListenerContractTest, DestroyingMidConnectionIsClean) {
  auto& h = this->harness_;
  ASSERT_TRUE(h.Start().ok());
  ASSERT_TRUE(h.Engage());
  // The derived destructor stops the server, joining the running handler,
  // before the members that handler uses die.
  h.server.reset();
}

int HighestOpenFd() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int highest = -1;
  while (const dirent* entry = ::readdir(dir)) {
    const int fd = std::atoi(entry->d_name);  // "." and ".." read as 0
    if (fd != ::dirfd(dir)) highest = std::max(highest, fd);
  }
  ::closedir(dir);
  return highest;
}

double ProcessCpuSeconds() {
  timespec ts;
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// With no fd left, accept() fails with EMFILE and the connection stays
// pending, so a loop that retries at once spins a core until an fd frees
// up. The accept loop must wait between attempts instead, and serve the
// pending client once fds are free again.
TEST(ConnectionServerTest, AcceptBacksOffWhileTheFdTableIsFull) {
  obs::DebugServer server(nullptr, nullptr);
  obs::DebugServer::Options options;
  options.num_threads = 1;
  ASSERT_TRUE(server.Start(options).ok());
  // The client socket exists before the table fills: connect() needs no
  // new fd, the server's accept() does.
  const int client = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);

  rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit full = saved;
  full.rlim_cur = static_cast<rlim_t>(HighestOpenFd() + 1);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &full), 0);
  // Fill any free fd below the limit, so no accept() can succeed.
  std::vector<int> fillers;
  for (int fd; (fd = ::dup(client)) >= 0;) fillers.push_back(fd);
  ASSERT_EQ(errno, EMFILE);
  ASSERT_EQ(
      ::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
      0);
  const std::string request = "GET /healthz HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(WriteAll(client, AsBytes(request)).ok());

  const Clock::time_point wall_start = Clock::now();
  const double cpu_start = ProcessCpuSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double cpu_s = ProcessCpuSeconds() - cpu_start;
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - wall_start).count();

  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  for (const int fd : fillers) ::close(fd);
  // A spinning accept loop burns a whole core: CPU time near wall time.
  EXPECT_LT(cpu_s, 0.25 * wall_s)
      << "cpu " << cpu_s << " s over " << wall_s << " s wall";
  std::string response;
  EXPECT_TRUE(ReadToEof(client, &response));
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  ::close(client);
  server.Stop();
}

}  // namespace
}  // namespace pmkm
