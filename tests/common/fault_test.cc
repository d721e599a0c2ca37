#include "common/fault.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace pmkm {
namespace {

// Every test drives the process-global registry, so each one starts and
// ends from a clean slate.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().Reset(); }
  void TearDown() override { FaultRegistry::Global().Reset(); }
};

TEST_F(FaultTest, DisarmedSiteNeverFires) {
  FaultRegistry& reg = FaultRegistry::Global();
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(reg.Hit("io.read").ok());
  }
  EXPECT_EQ(reg.hits("io.read"), 0u);  // fast path skips counting
}

TEST_F(FaultTest, NthHitFiresExactlyOnce) {
  FaultRegistry& reg = FaultRegistry::Global();
  FaultSpec spec;
  spec.nth = 3;
  reg.Arm("io.read", spec);
  EXPECT_TRUE(reg.Hit("io.read").ok());
  EXPECT_TRUE(reg.Hit("io.read").ok());
  const Status third = reg.Hit("io.read");
  EXPECT_TRUE(third.IsIOError());
  EXPECT_EQ(third.message(), "injected fault at io.read");
  EXPECT_TRUE(reg.Hit("io.read").ok());
  EXPECT_EQ(reg.hits("io.read"), 4u);
  EXPECT_EQ(reg.failures("io.read"), 1u);
}

TEST_F(FaultTest, PermanentNthFiresFromNOnwards) {
  FaultRegistry& reg = FaultRegistry::Global();
  FaultSpec spec;
  spec.nth = 2;
  spec.permanent = true;
  reg.Arm("op.partial", spec);
  EXPECT_TRUE(reg.Hit("op.partial").ok());
  EXPECT_FALSE(reg.Hit("op.partial").ok());
  EXPECT_FALSE(reg.Hit("op.partial").ok());
  EXPECT_EQ(reg.failures("op.partial"), 2u);
}

TEST_F(FaultTest, ProbabilityIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    FaultRegistry& reg = FaultRegistry::Global();
    reg.Reset();
    FaultSpec spec;
    spec.probability = 0.3;
    spec.seed = seed;
    reg.Arm("io.read", spec);
    std::vector<bool> outcomes;
    for (int i = 0; i < 50; ++i) {
      outcomes.push_back(!reg.Hit("io.read").ok());
    }
    return outcomes;
  };
  const auto a = run(7);
  const auto b = run(7);
  const auto c = run(8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // ~30% of 50 hits should fire; sanity-check it's neither 0 nor all.
  const size_t fired = static_cast<size_t>(
      std::count(a.begin(), a.end(), true));
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, 50u);
}

TEST_F(FaultTest, MaxFailuresCapsInjection) {
  FaultRegistry& reg = FaultRegistry::Global();
  FaultSpec spec;
  spec.probability = 1.0;
  spec.max_failures = 2;
  reg.Arm("io.write", spec);
  EXPECT_FALSE(reg.Hit("io.write").ok());
  EXPECT_FALSE(reg.Hit("io.write").ok());
  EXPECT_TRUE(reg.Hit("io.write").ok());  // cap reached
  EXPECT_EQ(reg.failures("io.write"), 2u);
}

TEST_F(FaultTest, StallSiteStallsButNeverErrors) {
  FaultRegistry& reg = FaultRegistry::Global();
  FaultSpec spec;
  spec.nth = 2;
  spec.stall_ms = 1234;
  reg.Arm("op.stall", spec);
  // Hit() and StallMs() share the site's hit counter; the error channel
  // stays clean for stall specs no matter which hit fires.
  EXPECT_TRUE(reg.Hit("op.stall").ok());       // hit 1
  EXPECT_EQ(reg.StallMs("op.stall"), 1234u);   // hit 2 == nth
  EXPECT_EQ(reg.StallMs("op.stall"), 0u);      // hit 3
  EXPECT_EQ(reg.hits("op.stall"), 3u);
}

TEST_F(FaultTest, CustomCodeAndMessage) {
  FaultRegistry& reg = FaultRegistry::Global();
  FaultSpec spec;
  spec.nth = 1;
  spec.code = StatusCode::kInternal;
  spec.message = "simulated crash";
  reg.Arm("queue.push", spec);
  const Status st = reg.Hit("queue.push");
  EXPECT_TRUE(st.IsInternal());
  EXPECT_EQ(st.message(), "simulated crash");
}

TEST_F(FaultTest, DisarmStopsInjection) {
  FaultRegistry& reg = FaultRegistry::Global();
  FaultSpec spec;
  spec.probability = 1.0;
  reg.Arm("io.read", spec);
  EXPECT_FALSE(reg.Hit("io.read").ok());
  reg.Reset();
  EXPECT_TRUE(reg.Hit("io.read").ok());
}

TEST_F(FaultTest, ArmFromStringParsesFullGrammar) {
  FaultRegistry& reg = FaultRegistry::Global();
  ASSERT_TRUE(reg.ArmFromString(
                     "io.read:p=0.5,seed=9,max=3;"
                     "op.partial:n=2,perm=1,code=deadline,msg=slow worker")
                  .ok());
  EXPECT_TRUE(reg.Hit("op.partial").ok());
  const Status st = reg.Hit("op.partial");
  EXPECT_TRUE(st.IsDeadlineExceeded());
  EXPECT_EQ(st.message(), "slow worker");
  // io.read armed probabilistically; just confirm it's counting hits.
  (void)reg.Hit("io.read");
  EXPECT_EQ(reg.hits("io.read"), 1u);
}

TEST_F(FaultTest, ArmFromStringRejectsMalformedSpecs) {
  FaultRegistry& reg = FaultRegistry::Global();
  EXPECT_TRUE(reg.ArmFromString("no-colon-here").IsInvalidArgument());
  EXPECT_TRUE(reg.ArmFromString("io.read:p").IsInvalidArgument());
  EXPECT_TRUE(reg.ArmFromString("io.read:p=abc").IsInvalidArgument());
  EXPECT_TRUE(reg.ArmFromString("io.read:bogus=1").IsInvalidArgument());
  EXPECT_TRUE(reg.ArmFromString("io.read:code=teapot").IsInvalidArgument());
  EXPECT_TRUE(reg.ArmFromString(":p=1").IsInvalidArgument());
}

TEST_F(FaultTest, FaultPointMacroPropagates) {
  FaultRegistry& reg = FaultRegistry::Global();
  FaultSpec spec;
  spec.nth = 1;
  reg.Arm("macro.site", spec);
  auto guarded = []() -> Status {
    PMKM_FAULT_POINT("macro.site");
    return Status::OK();
  };
  EXPECT_TRUE(guarded().IsIOError());
  EXPECT_TRUE(guarded().ok());
}

}  // namespace
}  // namespace pmkm
