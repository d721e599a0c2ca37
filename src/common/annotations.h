// Compile-time concurrency checking: Clang thread-safety-analysis macros
// plus the annotated synchronization primitives (Mutex, MutexLock, CondVar)
// every concurrent structure in pmkm builds on.
//
// Under Clang with -Wthread-safety the analysis proves, per translation
// unit, that every field marked PMKM_GUARDED_BY(mu) is only touched while
// `mu` is held and that every function marked PMKM_REQUIRES(mu) is only
// called with `mu` held. The project treats these findings as errors
// (-Werror=thread-safety, see scripts/run_static_analysis.sh), so a
// locking bug in annotated code does not compile. Under GCC (which has no
// thread-safety analysis) the macros expand to nothing and the wrappers
// compile to the bare std primitives.
//
// Conventions (DESIGN.md §11):
//   - Shared mutable state is a private field annotated
//     PMKM_GUARDED_BY(mu_); the mutex is declared *before* the data it
//     guards.
//   - Private helpers that assume the lock carry PMKM_REQUIRES(mu_) and a
//     "Locked" name suffix.
//   - Public methods that take the lock are annotated PMKM_EXCLUDES(mu_)
//     so the analysis rejects self-deadlocking re-entry.
//   - Opting out requires PMKM_NO_THREAD_SAFETY_ANALYSIS plus a comment
//     justifying why the analysis cannot see the invariant.

#ifndef PMKM_COMMON_ANNOTATIONS_H_
#define PMKM_COMMON_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

// PMKM_SCHEDCHECK (CMake option of the same name) reroutes every operation
// on these wrappers through the concurrency-analysis hooks in
// common/schedcheck/hooks.h — the runtime lock-order witness and the
// deterministic schedule explorer (DESIGN.md §12). The definition is
// global (add_compile_definitions) so every TU agrees on the wrapper
// layout; when it is off, the wrappers compile to the bare std primitives
// and the analysis layer costs nothing.
#if defined(PMKM_SCHEDCHECK)
#include "common/schedcheck/hooks.h"
#endif

#if defined(__clang__) && (!defined(SWIG))
#define PMKM_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PMKM_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Declares a type to be a lockable capability ("mutex").
#define PMKM_CAPABILITY(x) PMKM_THREAD_ANNOTATION(capability(x))

/// Declares an RAII type whose lifetime acquires/releases a capability.
#define PMKM_SCOPED_CAPABILITY PMKM_THREAD_ANNOTATION(scoped_lockable)

/// Field is only read/written while holding the given mutex(es).
#define PMKM_GUARDED_BY(x) PMKM_THREAD_ANNOTATION(guarded_by(x))

/// Pointee is only dereferenced while holding the given mutex(es).
#define PMKM_PT_GUARDED_BY(x) PMKM_THREAD_ANNOTATION(pt_guarded_by(x))

/// Caller must hold the mutex(es) exclusively when calling.
#define PMKM_REQUIRES(...) \
  PMKM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Caller must hold the mutex(es) at least shared when calling.
#define PMKM_REQUIRES_SHARED(...) \
  PMKM_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Function acquires the mutex(es) and holds them on return.
#define PMKM_ACQUIRE(...) \
  PMKM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the mutex(es) held on entry.
#define PMKM_RELEASE(...) \
  PMKM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function acquires the mutex(es) iff it returns the given value.
#define PMKM_TRY_ACQUIRE(...) \
  PMKM_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT already hold the mutex(es) (deadlock prevention).
#define PMKM_EXCLUDES(...) PMKM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Asserts at analysis time that the capability is held (runtime no-op).
#define PMKM_ASSERT_CAPABILITY(x) \
  PMKM_THREAD_ANNOTATION(assert_capability(x))

/// Function returns a reference to the given capability.
#define PMKM_RETURN_CAPABILITY(x) PMKM_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment justifying why the invariant is invisible to the
/// analysis (e.g. lock ownership transferred through std::adopt_lock).
#define PMKM_NO_THREAD_SAFETY_ANALYSIS \
  PMKM_THREAD_ANNOTATION(no_thread_safety_analysis)

// ---------------------------------------------------------------------------
// Execution-context annotations, verified whole-program by
// tools/pmkm_ctxcheck.py (DESIGN.md §16). Under Clang they emit
// __attribute__((annotate(...))) so the roots are also visible in the
// AST/IR; under GCC they expand to nothing. The analyzer itself keys on
// the macro names at the declaration or definition, so the checks run
// identically under either toolchain.

#if defined(__clang__) && (!defined(SWIG))
#define PMKM_CTX_ANNOTATION(x) __attribute__((annotate(x)))
#else
#define PMKM_CTX_ANNOTATION(x)  // no-op outside Clang
#endif

/// Root of an async-signal context (SIGPROF handler, crash paths).
/// Everything transitively reachable must stay on the POSIX
/// async-signal-safe allowlist: no allocation, locks, stdio, or calls
/// off the allowlist (pmkm_ctxcheck rule `signal-safe`).
#define PMKM_SIGNAL_SAFE PMKM_CTX_ANNOTATION("pmkm_signal_safe")

/// Root of a wait-free hot path (metric Record/Increment, kernel
/// AssignMasked/PruneBlock). Must never allocate, lock, block, or throw
/// (pmkm_ctxcheck rule `wait-free`).
#define PMKM_WAITFREE PMKM_CTX_ANNOTATION("pmkm_waitfree")

/// Function that may be called while any pmkm::Mutex is held: nothing it
/// reaches may issue a blocking syscall or unbounded wait. Functions
/// marked PMKM_REQUIRES(...) or named *Locked are checked implicitly
/// (pmkm_ctxcheck rule `no-block-under-lock`).
#define PMKM_NO_BLOCK_UNDER_LOCK PMKM_CTX_ANNOTATION("pmkm_no_block_under_lock")

/// Handler running on a bounded pool (debug server, serve sessions):
/// only timeout-bounded blocking primitives (CondVar::WaitFor,
/// SO_RCVTIMEO-bounded socket I/O) are allowed
/// (pmkm_ctxcheck rule `bounded-handler`).
#define PMKM_BOUNDED_HANDLER PMKM_CTX_ANNOTATION("pmkm_bounded_handler")

/// Root of an output-byte determinism contract, verified whole-program
/// by tools/pmkm_detcheck.py (DESIGN.md §17): the model codec
/// (EncodeModel), the checkpoint cell-complete encoder, serve protocol
/// encoders, and the kernel Assign/Accumulate hot path that
/// produces the numbers being serialized. Nothing reachable may iterate
/// a hash-ordered container into the output (rule `unordered-iter`),
/// read a wall clock or random source outside the sanctioned seed
/// plumbing in common/rng.h (rule `nondet-source`), or key ordering or
/// hashing on pointer values (rule `ptr-order`); each root's TU must be
/// compiled with -ffp-contract=off and without value-unsafe FP flags
/// (rule `fp-flags`). These are the static guarantees behind the
/// bitwise-model contracts: cross-ISA kernel parity (PR 3), resume
/// parity (PR 6), local-vs-remote parity (PR 8), and the
/// content-addressed cache keys of ROADMAP item 1.
#define PMKM_DETERMINISTIC PMKM_CTX_ANNOTATION("pmkm_deterministic")

namespace pmkm {

/// std::mutex with thread-safety-analysis capability annotations. Use with
/// MutexLock; fields it protects are declared PMKM_GUARDED_BY(mu_).
class PMKM_CAPABILITY("mutex") Mutex {
 public:
#if defined(PMKM_SCHEDCHECK)
  // The defaulted SourceSite captures the *construction* site, which keys
  // this mutex's lock class in the lock-order graph (all instances built
  // at one source line form one class, the lockdep model).
  explicit Mutex(
      schedcheck::SourceSite site = schedcheck::SourceSite::Current()) {
    schedcheck::OnMutexCreate(this, site);
  }
  ~Mutex() { schedcheck::OnMutexDestroy(this); }
#else
  Mutex() = default;
#endif
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

#if defined(PMKM_SCHEDCHECK)
  // The defaulted SourceSite is the static acquisition site reported in
  // lock-order-inversion witnesses.
  void Lock(schedcheck::SourceSite site = schedcheck::SourceSite::Current())
      PMKM_ACQUIRE() {
    schedcheck::OnMutexLock(&mu_, this, site);
  }
  void Unlock() PMKM_RELEASE() { schedcheck::OnMutexUnlock(&mu_, this); }
  bool TryLock(schedcheck::SourceSite site = schedcheck::SourceSite::Current())
      PMKM_TRY_ACQUIRE(true) {
    return schedcheck::OnMutexTryLock(&mu_, this, site);
  }
#else
  void Lock() PMKM_ACQUIRE() { mu_.lock(); }
  void Unlock() PMKM_RELEASE() { mu_.unlock(); }
  bool TryLock() PMKM_TRY_ACQUIRE(true) { return mu_.try_lock(); }
#endif

  /// Analysis-only assertion that the calling thread holds this mutex;
  /// compiles to nothing. Use in helpers reached only under the lock when
  /// restructuring to PMKM_REQUIRES is not possible.
  void AssertHeld() const PMKM_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock for Mutex (std::lock_guard shaped, analysis-visible).
class PMKM_SCOPED_CAPABILITY MutexLock {
 public:
#if defined(PMKM_SCHEDCHECK)
  explicit MutexLock(
      Mutex& mu, schedcheck::SourceSite site = schedcheck::SourceSite::Current())
      PMKM_ACQUIRE(mu)
      : mu_(mu) {
    mu_.Lock(site);
  }
#else
  explicit MutexLock(Mutex& mu) PMKM_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
#endif
  ~MutexLock() PMKM_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with Mutex. Waits temporarily release the
/// mutex exactly like std::condition_variable; the analysis sees the lock
/// as continuously held across a Wait, which matches the invariant the
/// caller relies on (guarded state may only be touched between waits).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified. The mutex is released while blocked and
  /// re-acquired before returning.
  // Analysis disabled: ownership round-trips through std::adopt_lock /
  // release(), which the analysis cannot track; the lock is held on entry
  // and on exit, which is all callers observe.
  void Wait(Mutex& mu) PMKM_REQUIRES(mu) PMKM_NO_THREAD_SAFETY_ANALYSIS {
#if defined(PMKM_SCHEDCHECK)
    schedcheck::OnCondWait(&cv_, this, &mu.mu_, &mu);
#else
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
#endif
  }

  /// Blocks until `pred()` holds (spurious-wakeup safe). `pred` is always
  /// evaluated with the mutex held.
  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) PMKM_REQUIRES(mu) {
    while (!pred()) Wait(mu);
  }

  /// Blocks until notified or the duration elapses.
  // Analysis disabled: same std::adopt_lock round-trip as Wait above.
  template <typename Rep, typename Period>
  std::cv_status WaitFor(Mutex& mu,
                         const std::chrono::duration<Rep, Period>& dur)
      PMKM_REQUIRES(mu) PMKM_NO_THREAD_SAFETY_ANALYSIS {
#if defined(PMKM_SCHEDCHECK)
    // Inside a scheduler episode the timeout becomes a scheduling choice
    // (no real time passes); outside one this is the plain timed wait.
    const bool timed_out = schedcheck::OnCondWaitFor(
        &cv_, this, &mu.mu_, &mu,
        std::chrono::duration_cast<std::chrono::nanoseconds>(dur));
    return timed_out ? std::cv_status::timeout : std::cv_status::no_timeout;
#else
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(lock, dur);
    lock.release();
    return status;
#endif
  }

#if defined(PMKM_SCHEDCHECK)
  void NotifyOne() { schedcheck::OnCondNotifyOne(&cv_, this); }
  void NotifyAll() { schedcheck::OnCondNotifyAll(&cv_, this); }
#else
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }
#endif

 private:
  std::condition_variable cv_;
};

}  // namespace pmkm

/// Marks a non-lock interleaving point for the deterministic schedule
/// explorer (queue push/pop entry, executor error paths, fault-registry
/// hits). Compiles to nothing unless the build defines PMKM_SCHEDCHECK;
/// inside a scheduler episode it is a decision point, otherwise a no-op.
#if defined(PMKM_SCHEDCHECK)
#define PMKM_SCHED_POINT(label) ::pmkm::schedcheck::SchedPoint(label)
#else
#define PMKM_SCHED_POINT(label) ((void)0)
#endif

#endif  // PMKM_COMMON_ANNOTATIONS_H_
