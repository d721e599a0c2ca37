#include "common/retry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

namespace pmkm {

namespace {

// Backoff growth per retry, its ceiling, the relative jitter band and the
// jitter Rng's seed (combined with the per-call seed tag).
constexpr double kBackoffMultiplier = 2.0;
constexpr double kMaxBackoffMs = 2000.0;
constexpr double kJitter = 0.25;
constexpr uint64_t kJitterSeed = 0x7e57ab1eULL;

}  // namespace

bool IsRetryableStatus(const Status& status) {
  return status.IsIOError() || status.IsDeadlineExceeded();
}

Retrier::Retrier(const RetryPolicy& policy, uint64_t seed_tag)
    : policy_(policy),
      rng_(kJitterSeed ^ (seed_tag * 0x9e3779b97f4a7c15ULL)) {}

uint64_t Retrier::NextBackoffMs() {
  // retries_ has already been incremented for the retry being granted.
  const double exp =
      std::pow(kBackoffMultiplier, static_cast<double>(retries_ - 1));
  const double backoff = std::min(
      static_cast<double>(policy_.initial_backoff_ms) * exp, kMaxBackoffMs);
  // The jitter draw happens even for zero backoff so the Rng stream (and
  // thus any later backoff) stays independent of the ceiling.
  const double factor = 1.0 + kJitter * (2.0 * rng_.UniformDouble() - 1.0);
  return static_cast<uint64_t>(backoff * factor);
}

bool Retrier::AllowRetryImpl(const Status& status,
                             std::vector<uint64_t>* delays_ms) {
  if (status.ok() || !IsRetryableStatus(status)) return false;
  if (retries_ + 1 >= policy_.max_attempts) return false;
  ++retries_;
  const uint64_t backoff_ms = NextBackoffMs();
  if (delays_ms != nullptr) {
    delays_ms->push_back(backoff_ms);
  } else if (backoff_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
  }
  return true;
}

bool Retrier::AllowRetry(const Status& status) {
  return AllowRetryImpl(status, nullptr);
}

}  // namespace pmkm
