// Schedule sweeps over the real Executor (DESIGN.md §12): fail-fast
// teardown, cancel-token teardown and a queue-connected producer/consumer
// pipeline. Requires the PMKM_SCHEDCHECK=ON build (skips elsewhere).

#include "stream/operator.h"

#include <atomic>
#include <memory>
#include <optional>

#include <gtest/gtest.h>

#include "common/schedcheck/hooks.h"
#include "common/schedcheck/sweep.h"
#include "common/status.h"
#include "stream/queue.h"

namespace pmkm {
namespace {

using schedcheck::SweepOptions;
using schedcheck::SweepResult;
using schedcheck::SweepSchedules;

// Always fails: the executor must abort the whole pipeline.
class FailingOperator : public Operator {
 public:
  FailingOperator() : Operator("failing") {}
  Status Run() override {
    return Status::Internal("permanent failure (seeded)");
  }
  void Abort() override {}
};

// Producer/consumer pair over a real bounded queue; Abort cancels the
// queue exactly like the production scan/cluster operators do.
class ProducerOperator : public Operator {
 public:
  ProducerOperator(BoundedBlockingQueue<int>* q, int n)
      : Operator("producer"), q_(q), n_(n) {
    q_->AddProducer();
  }
  Status Run() override {
    for (int i = 0; i < n_; ++i) {
      if (!q_->Push(i)) {
        q_->CloseProducer();
        return Status::Cancelled("queue cancelled");
      }
    }
    q_->CloseProducer();
    return Status::OK();
  }
  void Abort() override { q_->Cancel(); }

 private:
  BoundedBlockingQueue<int>* q_;
  int n_;
};

class ConsumerOperator : public Operator {
 public:
  ConsumerOperator(BoundedBlockingQueue<int>* q, int* popped)
      : Operator("consumer"), q_(q), popped_(popped) {}
  Status Run() override {
    while (q_->Pop().has_value()) {
      ++*popped_;
    }
    return q_->cancelled() ? Status::Cancelled("queue cancelled")
                           : Status::OK();
  }
  void Abort() override { q_->Cancel(); }

 private:
  BoundedBlockingQueue<int>* q_;
  int* popped_;
};

// Flips the run's cancel token, then works until the executor aborts it
// (it waits on its own queue), so only the token can end the run.
class CancellingOperator : public Operator {
 public:
  explicit CancellingOperator(std::atomic<bool>* cancel)
      : Operator("cancelling"), cancel_(cancel), q_(1) {
    q_.AddProducer();
  }
  Status Run() override {
    cancel_->store(true, std::memory_order_release);
    q_.Pop();
    return Status::Cancelled("queue cancelled");
  }
  void Abort() override { q_.Cancel(); }

 private:
  std::atomic<bool>* cancel_;
  BoundedBlockingQueue<int> q_;
};

class ExecutorSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!schedcheck::HooksEnabledInBuild()) {
      GTEST_SKIP() << "requires a PMKM_SCHEDCHECK=ON build";
    }
  }
};

// Fail-fast teardown: when one operator fails the pipeline must abort —
// cancelling the shared queue so neither side wedges — in every schedule.
TEST_F(ExecutorSweepTest, FailFastTeardownNeverWedges) {
  SweepOptions options;
  options.name = "executor_failfast";
  options.num_seeds = schedcheck::SeedsFromEnvOr(1000);
  options.strategy = schedcheck::ScheduleOptions::Strategy::kPCT;
  const SweepResult res = SweepSchedules(options, [] {
    BoundedBlockingQueue<int> q(1);
    int popped = 0;
    Executor exec;
    exec.Add(std::make_unique<ProducerOperator>(&q, 3));
    exec.Add(std::make_unique<ConsumerOperator>(&q, &popped));
    exec.Add(std::make_unique<FailingOperator>());
    const Status st = exec.Run();
    return st.ok();  // bug: the poisoned pipeline reported success
  });
  EXPECT_FALSE(res.bug_found)
      << "seed " << res.failing_seed << ": " << res.detail;
}

// Cancel teardown: the calling thread sees the token and aborts the
// pipeline through the same path as an operator error, so a producer
// blocked on a full queue, its consumer and the cancelling operator all
// return, and Run returns Cancelled, in every schedule.
TEST_F(ExecutorSweepTest, CancelTokenTearsDownInEverySchedule) {
  SweepOptions options;
  options.name = "executor_cancel";
  options.num_seeds = schedcheck::SeedsFromEnvOr(1000);
  const SweepResult res = SweepSchedules(options, [] {
    BoundedBlockingQueue<int> q(1);
    int popped = 0;
    std::atomic<bool> cancel{false};
    Executor exec;
    exec.Add(std::make_unique<ProducerOperator>(&q, 3));
    exec.Add(std::make_unique<ConsumerOperator>(&q, &popped));
    exec.Add(std::make_unique<CancellingOperator>(&cancel));
    const Status st = exec.Run(&cancel);
    return !st.IsCancelled();
  });
  EXPECT_FALSE(res.bug_found)
      << "seed " << res.failing_seed << ": " << res.detail;
}

// Pipeline path: producer → queue → consumer must conserve items under
// every interleaving of pushes, pops, and the executor's join dance.
TEST_F(ExecutorSweepTest, PipelineConservesItems) {
  SweepOptions options;
  options.name = "executor_pipeline";
  options.num_seeds = schedcheck::SeedsFromEnvOr(1000);
  const SweepResult res = SweepSchedules(options, [] {
    BoundedBlockingQueue<int> q(1);
    int popped = 0;
    Executor exec;
    exec.Add(std::make_unique<ProducerOperator>(&q, 3));
    exec.Add(std::make_unique<ConsumerOperator>(&q, &popped));
    const Status st = exec.Run();
    return !st.ok() || popped != 3;
  });
  EXPECT_FALSE(res.bug_found)
      << "seed " << res.failing_seed << ": " << res.detail;
}

}  // namespace
}  // namespace pmkm
