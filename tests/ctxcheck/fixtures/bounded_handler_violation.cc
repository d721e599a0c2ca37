// pmkm_ctxcheck golden fixture — POSITIVE for rule `bounded-handler`.
//
// A PMKM_BOUNDED_HANDLER session handler parks on an *untimed*
// CondVar::Wait: one slow client now pins a pool thread forever, and a
// handful of them starve the whole handler pool. The analyzer must
// report the witness chain HandleConnection -> AwaitWork -> Wait, and
// the one through the std::unique_ptr-owned job table,
// HandleConnection -> JobTable::AwaitForever -> Wait.
// This file compiles but is deliberately wrong.

#include <memory>

#include "common/annotations.h"

namespace ctxfix {

class JobTable {
 public:
  void AwaitForever() {
    pmkm::MutexLock lock(mu_);
    while (!done_) changed_.Wait(mu_);  // unbounded, one call away
  }

 private:
  pmkm::Mutex mu_;
  pmkm::CondVar changed_;
  bool done_ PMKM_GUARDED_BY(mu_) = false;
};

class SessionServer {
 public:
  void HandleConnection(int /*fd*/) PMKM_BOUNDED_HANDLER {
    jobs_->AwaitForever();
    pmkm::MutexLock lock(mu_);
    AwaitWork();
  }

 private:
  void AwaitWork() PMKM_REQUIRES(mu_) {
    while (!ready_) cv_.Wait(mu_);  // unbounded: no timeout, pool thread pinned
  }

  std::unique_ptr<JobTable> jobs_;  // never linked or run
  pmkm::Mutex mu_;
  pmkm::CondVar cv_;
  bool ready_ PMKM_GUARDED_BY(mu_) = false;
};

void Touch(SessionServer& s) { s.HandleConnection(3); }

}  // namespace ctxfix
