// pmkm_ctxcheck golden fixture — POSITIVE for rule `bounded-handler`.
//
// A PMKM_BOUNDED_HANDLER session handler parks on an *untimed*
// CondVar::Wait: one slow client now pins a pool thread forever, and a
// handful of them starve the whole handler pool. The analyzer must
// report the witness chain HandleConnection -> AwaitWork -> Wait, and
// the one through the std::unique_ptr-owned job table,
// HandleConnection -> JobTable::AwaitForever -> Wait.
// A shared listener annotates only its pure virtual HandleConnection
// (the ConnectionServer shape); the unannotated override in a derived
// class is a root all the same, so SessionHost::HandleConnection -> Wait
// is a finding too.
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

class Listener {
 public:
  virtual ~Listener() = default;

 private:
  virtual void HandleConnection(int fd) PMKM_BOUNDED_HANDLER = 0;
};

class SessionHost : public Listener {
 private:
  void HandleConnection(int /*fd*/) override {
    pmkm::MutexLock lock(mu_);
    while (!ready_) cv_.Wait(mu_);  // unbounded, annotated via the base
  }

  pmkm::Mutex mu_;
  pmkm::CondVar cv_;
  bool ready_ PMKM_GUARDED_BY(mu_) = false;
};

}  // namespace ctxfix
