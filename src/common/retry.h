// Retry with exponential backoff: the library-wide policy for absorbing
// transient failures (flaky I/O, injected faults) instead of aborting a
// multi-hour streaming run.
//
// Backoff jitter is drawn from a deterministically seeded Rng so a retried
// run is exactly reproducible: identical policy + seed tag => identical
// backoff sequence. Tests set initial_backoff_ms = 0 to retry without
// sleeping.

#ifndef PMKM_COMMON_RETRY_H_
#define PMKM_COMMON_RETRY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"

namespace pmkm {

/// True for the status codes worth retrying: transient I/O failures and
/// deadline misses. Invalid arguments, internal invariant violations and
/// cancellations are never transient.
bool IsRetryableStatus(const Status& status);

/// Tunable retry behavior.
struct RetryPolicy {
  /// Total attempts including the first one (>= 1). 1 = no retries.
  size_t max_attempts = 1;

  /// Backoff before retry r (1-based) is
  ///   min(initial_backoff_ms * 2^(r-1), 2000 ms)
  /// scaled by a jitter factor drawn uniformly from [0.75, 1.25] (the
  /// constants live in retry.cc).
  uint64_t initial_backoff_ms = 10;
};

/// Tracks one retry loop: attempt count and jittered backoff.
class Retrier {
 public:
  /// `seed_tag` decorrelates jitter across call sites sharing a policy.
  explicit Retrier(const RetryPolicy& policy, uint64_t seed_tag = 0);

  /// Called after a failed attempt. If IsRetryableStatus accepts the
  /// failure and attempts remain, sleeps the backoff and returns true;
  /// otherwise returns false and the caller should give up.
  bool AllowRetry(const Status& status);

  /// Retries granted so far (== failed attempts absorbed).
  size_t retries() const { return retries_; }

  /// Test hook, defined in tests/support/test_hooks.cc (only test
  /// binaries link it): like AllowRetry, but records the backoff into
  /// `delays_ms` instead of sleeping, so a test can check the jittered
  /// sequence without waiting.
  bool AllowRetryForTest(const Status& status,
                         std::vector<uint64_t>* delays_ms);

 private:
  bool AllowRetryImpl(const Status& status,
                      std::vector<uint64_t>* delays_ms);
  uint64_t NextBackoffMs();

  RetryPolicy policy_;
  Rng rng_;
  size_t retries_ = 0;
};

namespace internal {
inline const Status& AsStatus(const Status& s) { return s; }
template <typename T>
inline Status AsStatus(const Result<T>& r) {
  return r.status();
}
}  // namespace internal

/// Invokes `fn` (returning Status or Result<T>) until it succeeds, the
/// policy's budget is exhausted, or a non-retryable failure occurs. Returns
/// the last outcome. `retries_used`, if non-null, receives the number of
/// retries consumed.
template <typename Fn>
auto RetryCall(const RetryPolicy& policy, uint64_t seed_tag, Fn&& fn,
               size_t* retries_used = nullptr) -> decltype(fn()) {
  Retrier retrier(policy, seed_tag);
  for (;;) {
    auto outcome = fn();
    if (outcome.ok() || !retrier.AllowRetry(internal::AsStatus(outcome))) {
      if (retries_used != nullptr) *retries_used = retrier.retries();
      return outcome;
    }
  }
}

}  // namespace pmkm

#endif  // PMKM_COMMON_RETRY_H_
