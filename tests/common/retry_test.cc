#include "common/retry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace pmkm {
namespace {

RetryPolicy FastPolicy(size_t attempts) {
  RetryPolicy policy;
  policy.max_attempts = attempts;
  policy.initial_backoff_ms = 0;  // tests must not sleep
  return policy;
}

TEST(RetryTest, SucceedsFirstTry) {
  size_t calls = 0;
  size_t retries = 0;
  Result<int> r = RetryCall(
      FastPolicy(3), /*seed_tag=*/0,
      [&]() -> Result<int> {
        ++calls;
        return 7;
      },
      &retries);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(retries, 0u);
}

TEST(RetryTest, RetriesTransientFailureThenSucceeds) {
  size_t calls = 0;
  size_t retries = 0;
  Result<int> r = RetryCall(
      FastPolicy(5), /*seed_tag=*/0,
      [&]() -> Result<int> {
        if (++calls < 3) return Status::IOError("flaky");
        return 42;
      },
      &retries);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(retries, 2u);
}

TEST(RetryTest, ExhaustsAttempts) {
  size_t calls = 0;
  Status st = RetryCall(FastPolicy(4), /*seed_tag=*/1, [&]() -> Status {
    ++calls;
    return Status::IOError("always down");
  });
  EXPECT_TRUE(st.IsIOError());
  EXPECT_EQ(calls, 4u);
}

TEST(RetryTest, NonRetryableErrorFailsImmediately) {
  size_t calls = 0;
  Status st = RetryCall(FastPolicy(5), /*seed_tag=*/0, [&]() -> Status {
    ++calls;
    return Status::InvalidArgument("bad input");
  });
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(calls, 1u);
}

TEST(RetryTest, DeadlineExceededIsRetryableByDefault) {
  EXPECT_TRUE(IsRetryableStatus(Status::DeadlineExceeded("slow")));
  EXPECT_TRUE(IsRetryableStatus(Status::IOError("io")));
  EXPECT_FALSE(IsRetryableStatus(Status::NotFound("gone")));
  EXPECT_FALSE(IsRetryableStatus(Status::OK()));
}

TEST(RetryTest, BackoffIsDeterministicForSameSeed) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_ms = 8;

  auto collect = [&](uint64_t tag) {
    Retrier retrier(policy, tag);
    std::vector<uint64_t> delays;
    Status failing = Status::IOError("x");
    while (retrier.AllowRetryForTest(failing, &delays)) {
    }
    return delays;
  };
  const std::vector<uint64_t> a = collect(9);
  const std::vector<uint64_t> b = collect(9);
  const std::vector<uint64_t> c = collect(10);
  ASSERT_EQ(a.size(), 3u);  // max_attempts-1 retries
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // different seed tag, different jitter stream
}

TEST(RetryTest, BackoffGrowsAndCaps) {
  RetryPolicy policy;
  policy.max_attempts = 12;
  policy.initial_backoff_ms = 10;
  Retrier retrier(policy, 0);
  std::vector<uint64_t> delays;
  Status failing = Status::IOError("x");
  while (retrier.AllowRetryForTest(failing, &delays)) {
  }
  ASSERT_EQ(delays.size(), 11u);
  // Retry r waits min(10 ms * 2^(r-1), 2000 ms), jittered by ±25%.
  for (size_t r = 0; r < delays.size(); ++r) {
    SCOPED_TRACE(r);
    const double base = std::min(10.0 * std::pow(2.0, r), 2000.0);
    EXPECT_GE(static_cast<double>(delays[r]), std::floor(0.75 * base));
    EXPECT_LE(static_cast<double>(delays[r]), 1.25 * base);
  }
}

TEST(RetryTest, RetrierRejectsOkAndNonRetryable) {
  Retrier retrier(FastPolicy(5), 0);
  EXPECT_FALSE(retrier.AllowRetry(Status::OK()));
  EXPECT_FALSE(retrier.AllowRetry(Status::InvalidArgument("no")));
  EXPECT_EQ(retrier.retries(), 0u);
}

}  // namespace
}  // namespace pmkm
