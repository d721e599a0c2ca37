// Schedule sweeps over the debug-server observability surfaces
// (DESIGN.md §12, §14): RunBoard publishes racing status reads, and
// DebugServer::RenderResponse scraping concurrently with engine-side
// publishes. These drive the render path directly — never the blocking
// accept() loop, which would wedge a deterministic schedule episode.
//
// Requires the pmkm::Mutex/CondVar hooks (PMKM_SCHEDCHECK=ON); skips
// elsewhere.

#include "obs/debug_server.h"

#include <string>

#include <gtest/gtest.h>

#include "common/schedcheck/hooks.h"
#include "common/schedcheck/sweep.h"
#include "common/schedcheck/thread.h"
#include "obs/metrics.h"
#include "obs/runboard.h"
#include "obs/stats.h"

namespace pmkm {
namespace {

using schedcheck::SweepOptions;
using schedcheck::SweepResult;
using schedcheck::SweepSchedules;

class DebugServerSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!schedcheck::HooksEnabledInBuild()) {
      GTEST_SKIP() << "requires a PMKM_SCHEDCHECK=ON build";
    }
  }
};

// Operators publishing into their slots while a scraper reads status:
// every schedule must yield internally consistent snapshots (the slot
// table never shrinks mid-run, counts never go backwards).
TEST_F(DebugServerSweepTest, PublishRacingStatusReads) {
  SweepOptions options;
  options.name = "runboard_publish_status";
  options.num_seeds = schedcheck::SeedsFromEnvOr(500);
  const SweepResult res = SweepSchedules(options, [] {
    obs::RunBoard board;
    board.BeginRun("sweep01", "chunk=64", {"scan", "merge"});
    bool bad = false;
    schedcheck::Thread publisher(
        [&board] {
          OperatorStats stats;
          stats.name = "scan";
          for (int i = 1; i <= 3; ++i) {
            stats.rows_in = static_cast<uint64_t>(i * 100);
            board.PublishOperator("sweep01", 0, stats);
          }
        },
        "publisher");
    schedcheck::Thread scraper(
        [&board, &bad] {
          uint64_t last_rows = 0;
          for (int i = 0; i < 3; ++i) {
            const obs::RunBoard::StatusSnapshot s = board.TakeStatus();
            if (!s.active || s.run_id != "sweep01" ||
                s.operators.size() != 2) {
              bad = true;
              return;
            }
            // Published rows only grow within a run.
            if (s.operators[0].rows_in < last_rows) {
              bad = true;
              return;
            }
            last_rows = s.operators[0].rows_in;
          }
        },
        "scraper");
    publisher.Join();
    scraper.Join();
    return bad;
  });
  EXPECT_FALSE(res.bug_found)
      << "seed " << res.failing_seed << ": " << res.detail;
}

// EndRun racing a scrape: the scraper sees either the active run or the
// completed one — never a torn in-between (result without run id, runs
// completed ahead of started, ...).
TEST_F(DebugServerSweepTest, EndRunRacingScrape) {
  SweepOptions options;
  options.name = "runboard_endrun_scrape";
  options.num_seeds = schedcheck::SeedsFromEnvOr(500);
  const SweepResult res = SweepSchedules(options, [] {
    obs::RunBoard board;
    board.BeginRun("sweep02", "chunk=64", {"scan"});
    bool bad = false;
    schedcheck::Thread finisher(
        [&board] {
          board.EndRun("sweep02", true, "ok", JsonValue::Object());
        },
        "finisher");
    schedcheck::Thread scraper(
        [&board, &bad] {
          const obs::RunBoard::StatusSnapshot s = board.TakeStatus();
          if (s.runs_started != 1) bad = true;
          if (s.runs_completed > s.runs_started) bad = true;
          if (s.active && s.run_id != "sweep02") bad = true;
          if (!s.active && s.last_status != "ok") bad = true;
        },
        "scraper");
    finisher.Join();
    scraper.Join();
    return bad;
  });
  EXPECT_FALSE(res.bug_found)
      << "seed " << res.failing_seed << ": " << res.detail;
}

// Full render path under contention: /statusz, /runz and /metrics
// rendered while the board churns through a complete run and the
// registry records. Renders must always be well-formed 200 responses.
TEST_F(DebugServerSweepTest, RenderRacingRunLifecycle) {
  SweepOptions options;
  options.name = "debug_server_render";
  options.num_seeds = schedcheck::SeedsFromEnvOr(300);
  const SweepResult res = SweepSchedules(options, [] {
    MetricsRegistry registry;
    obs::DebugServer server(&registry, nullptr);
    bool bad = false;
    schedcheck::Thread engine(
        [&server, &registry] {
          server.board()->BeginRun("sweep03", "chunk=8", {"scan"});
          registry.counter("rows").Increment(8);
          OperatorStats stats;
          stats.name = "scan";
          stats.rows_in = 8;
          server.board()->PublishOperator("sweep03", 0, stats);
          server.board()->EndRun("sweep03", true, "ok", JsonValue::Object());
        },
        "engine");
    schedcheck::Thread scraper(
        [&server, &bad] {
          for (const char* target : {"/statusz", "/runz", "/metrics"}) {
            const std::string response = server.RenderResponse(target);
            if (response.find("HTTP/1.1 200 OK") == std::string::npos) {
              bad = true;
              return;
            }
          }
        },
        "scraper");
    engine.Join();
    scraper.Join();
    return bad;
  });
  EXPECT_FALSE(res.bug_found)
      << "seed " << res.failing_seed << ": " << res.detail;
}

}  // namespace
}  // namespace pmkm
