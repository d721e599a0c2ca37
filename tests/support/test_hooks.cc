// The test hooks that src/ headers declare: member functions only tests
// call. They are defined here, in a library only test binaries link, so
// a shipped binary cannot call them (scripts/run_link_check.sh).

#include "common/fault.h"
#include "common/retry.h"

namespace pmkm {

void FaultRegistry::Reset() {
  MutexLock lock(mu_);
  sites_.clear();
  armed_count_.store(0, std::memory_order_relaxed);
}

uint64_t FaultRegistry::hits(const std::string& site) const {
  MutexLock lock(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.hits;
}

uint64_t FaultRegistry::failures(const std::string& site) const {
  MutexLock lock(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.failures;
}

bool Retrier::AllowRetryForTest(const Status& status,
                                std::vector<uint64_t>* delays_ms) {
  return AllowRetryImpl(status, delays_ms);
}

}  // namespace pmkm
