// Seeded-bug doubles: the two concurrency bugs this project actually
// shipped and later fixed, re-created here in their *pre-fix* code shape
// so the schedule explorer re-finds each one deterministically from a
// printed seed (DESIGN.md §12). Each double is paired with its post-fix
// shape, which the same sweep must clear.
//
// Bug 1 — AttachMetrics swap race: AttachMetrics originally wrote the
// queue's metrics struct without holding mu_, so Push/Pop (reading it
// under mu_) could observe a torn, half-attached instrument set.
//
// Bug 2 — condvar histogram-null race: Push tested the block-time
// histogram pointer before waiting on not_full_, then re-read the member
// after the wait — but the wait releases mu_, so a concurrent
// AttachMetrics could swap the instrument to null mid-wait and the
// post-wait dereference crashed. The fix captures the pointer before
// waiting.
//
// The production queue (stream/queue.h) now fixes its instruments at
// construction and has no attach at all, so neither bug can recur there;
// the doubles stay as regressions of the explorer itself.
//
// Built on the always-instrumented doubles in schedcheck/sync.h, so these
// regressions run in every build configuration, not just PMKM_SCHEDCHECK.

#include <gtest/gtest.h>

#include "common/schedcheck/scheduler.h"
#include "common/schedcheck/sweep.h"
#include "common/schedcheck/sync.h"
#include "common/schedcheck/thread.h"

namespace pmkm {
namespace schedcheck {
namespace {

// ---------------------------------------------------------------------------
// Bug 1 double: torn metrics attach.

// Stand-in for QueueMetrics: three instrument pointers, modeled as ints so
// "torn" is directly observable (a real reader would dereference a
// half-swapped pointer set).
struct TornAttachQueue {
  Mutex mu;
  int depth = 0;
  int push_block = 0;
  int pop_wait = 0;

  // Pre-fix shape: the attach writes the three fields with no lock. The
  // Yields stand in for the instruction boundaries a preempting thread
  // could land on.
  void AttachPreFix(int generation) {
    depth = generation;
    Scheduler::Global().Yield();
    push_block = generation;
    Scheduler::Global().Yield();
    pop_wait = generation;
  }

  void AttachFixed(int generation) {
    MutexLock lock(&mu);
    depth = generation;
    Scheduler::Global().Yield();
    push_block = generation;
    Scheduler::Global().Yield();
    pop_wait = generation;
  }

  // The queue-operation side: reads the instrument set under mu_, as
  // Push/Pop always did. Returns true when it observed a torn set.
  bool ReadSawTorn() {
    MutexLock lock(&mu);
    return !(depth == push_block && push_block == pop_wait);
  }
};

bool TornAttachBody(bool fixed) {
  TornAttachQueue q;
  Thread attacher(
      [&] {
        if (fixed) {
          q.AttachFixed(1);
        } else {
          q.AttachPreFix(1);
        }
      },
      "attacher");
  bool torn = false;
  for (int i = 0; i < 4; ++i) {
    if (q.ReadSawTorn()) torn = true;
  }
  attacher.Join();
  return torn;
}

// Acceptance: the pre-fix shape is caught within <= 1000 seeded schedules.
TEST(SeededBugsTest, AttachSwapRaceCaughtWithin1000Seeds) {
  SweepOptions options;
  options.name = "attach_swap_race";
  options.first_seed = 1;
  options.num_seeds = 1000;
  const SweepResult res = SweepSchedules(options, [] {
    return TornAttachBody(/*fixed=*/false);
  });
  ASSERT_TRUE(res.bug_found)
      << "torn attach not found in " << res.seeds_run << " schedules";
  EXPECT_LE(res.seeds_run, 1000);
  EXPECT_FALSE(res.deadlock);  // invariant violation, not a deadlock

  // Reproducibility: the printed seed replays the exact failing schedule.
  SweepOptions replay;
  replay.name = "attach_swap_race_replay";
  replay.first_seed = res.failing_seed;
  replay.num_seeds = 1;
  const SweepResult again = SweepSchedules(replay, [] {
    return TornAttachBody(/*fixed=*/false);
  });
  EXPECT_TRUE(again.bug_found);
  EXPECT_EQ(again.seeds_run, 1);
  EXPECT_EQ(again.failing_seed, res.failing_seed);
}

TEST(SeededBugsTest, AttachSwapFixSurvivesSweep) {
  SweepOptions options;
  options.name = "attach_swap_fixed";
  options.num_seeds = 300;
  const SweepResult res = SweepSchedules(options, [] {
    return TornAttachBody(/*fixed=*/true);
  });
  EXPECT_FALSE(res.bug_found) << res.detail;
  EXPECT_EQ(res.seeds_run, 300);
}

// The same pre-fix shape is also within reach of bounded exhaustive
// exploration — no seeds involved at all.
TEST(SeededBugsTest, AttachSwapRaceFoundExhaustively) {
  ExhaustiveOptions options;
  options.name = "attach_swap_exhaustive";
  options.max_runs = 5000;
  const ExhaustiveResult res = ExploreExhaustive(options, [] {
    return TornAttachBody(/*fixed=*/false);
  });
  EXPECT_TRUE(res.bug_found);
  EXPECT_FALSE(res.failing_choices.empty());
}

// ---------------------------------------------------------------------------
// Bug 2 double: histogram detached to null across a condvar wait.

struct NullSwapQueue {
  Mutex mu;
  CondVar not_full;
  bool full = true;
  int* push_block_us;  // the attached instrument; Detach swaps it to null

  explicit NullSwapQueue(int* hist) : push_block_us(hist) {}

  // Pre-fix Push: tests the member before the wait, re-reads it after.
  // Returns true when the post-wait read found null (the crash, made
  // observable).
  bool PushPreFix() {
    MutexLock lock(&mu);
    if (full && push_block_us != nullptr) {
      while (full) not_full.Wait(mu);
      if (push_block_us == nullptr) return true;  // would be a null deref
      *push_block_us += 1;
    } else {
      while (full) not_full.Wait(mu);
    }
    return false;
  }

  // Post-fix Push: captures the pointer before waiting (registry-owned
  // instruments outlive the queue, so the captured pointer stays valid).
  bool PushFixed() {
    MutexLock lock(&mu);
    if (int* hist = push_block_us; full && hist != nullptr) {
      while (full) not_full.Wait(mu);
      *hist += 1;
    } else {
      while (full) not_full.Wait(mu);
    }
    return false;
  }

  void DetachInstruments() {
    MutexLock lock(&mu);
    push_block_us = nullptr;
  }

  void MakeRoom() {
    MutexLock lock(&mu);
    full = false;
    not_full.NotifyAll();
  }
};

bool NullSwapBody(bool fixed) {
  int histogram = 0;
  NullSwapQueue q(&histogram);
  bool pusher_saw_null = false;
  Thread pusher(
      [&] { pusher_saw_null = fixed ? q.PushFixed() : q.PushPreFix(); },
      "pusher");
  Thread detacher([&] { q.DetachInstruments(); }, "detacher");
  q.MakeRoom();
  pusher.Join();
  detacher.Join();
  return pusher_saw_null;
}

TEST(SeededBugsTest, CondvarHistogramNullCaughtWithin1000Seeds) {
  SweepOptions options;
  options.name = "condvar_histogram_null";
  options.first_seed = 1;
  options.num_seeds = 1000;
  const SweepResult res = SweepSchedules(options, [] {
    return NullSwapBody(/*fixed=*/false);
  });
  ASSERT_TRUE(res.bug_found)
      << "null-swap race not found in " << res.seeds_run << " schedules";
  EXPECT_LE(res.seeds_run, 1000);
  EXPECT_FALSE(res.deadlock);

  SweepOptions replay;
  replay.name = "condvar_histogram_null_replay";
  replay.first_seed = res.failing_seed;
  replay.num_seeds = 1;
  const SweepResult again = SweepSchedules(replay, [] {
    return NullSwapBody(/*fixed=*/false);
  });
  EXPECT_TRUE(again.bug_found);
  EXPECT_EQ(again.seeds_run, 1);
}

TEST(SeededBugsTest, CondvarHistogramFixSurvivesSweep) {
  SweepOptions options;
  options.name = "condvar_histogram_fixed";
  options.num_seeds = 300;
  const SweepResult res = SweepSchedules(options, [] {
    return NullSwapBody(/*fixed=*/true);
  });
  EXPECT_FALSE(res.bug_found) << res.detail;
  EXPECT_EQ(res.seeds_run, 300);
}

// PCT priority fuzzing also lands on the null-swap ordering — the two
// strategies are interchangeable for bugs this shallow.
TEST(SeededBugsTest, PctFindsCondvarHistogramNull) {
  SweepOptions options;
  options.name = "condvar_histogram_null_pct";
  options.num_seeds = 1000;
  options.strategy = ScheduleOptions::Strategy::kPCT;
  const SweepResult res = SweepSchedules(options, [] {
    return NullSwapBody(/*fixed=*/false);
  });
  EXPECT_TRUE(res.bug_found);
}

}  // namespace
}  // namespace schedcheck
}  // namespace pmkm
