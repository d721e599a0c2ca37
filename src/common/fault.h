// Deterministic fault injection for resilience testing.
//
// Code under test declares named fault sites (`PMKM_FAULT_POINT("io.read")`)
// at the places where the real world can fail. Tests, or the PMKM_FAULTS
// environment variable (read when the registry is first used), arm those
// sites to fail probabilistically or on the Nth hit. Every probabilistic
// decision draws from a per-site Rng seeded at arm time, so a failing run
// reproduces exactly from its seed.
//
// The disarmed fast path is a single relaxed atomic load — fault points are
// compiled into release builds and cost nothing while no fault is armed.
//
// Spec-string grammar (PMKM_FAULTS):
//   site:key=value[,key=value...][;site:...]
// keys: p (probability per hit), n (fail exactly the Nth hit, 1-based),
//       perm (with n: fail every hit >= n), max (cap on injected failures),
//       stall_ms (stall fault instead of an error), crash (kill the whole
//       process with SIGKILL instead of returning an error — the
//       crash-recovery sweeps die at exact, reproducible points), seed,
//       code (io|internal|notfound|cancelled|deadline), msg.
// Example: PMKM_FAULTS="io.read:p=0.05,seed=7;op.partial:n=3"
//          PMKM_FAULTS="checkpoint.append:n=2,crash=1"

#ifndef PMKM_COMMON_FAULT_H_
#define PMKM_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "common/annotations.h"
#include "common/rng.h"
#include "common/status.h"

namespace pmkm {

/// How an armed fault site misbehaves.
struct FaultSpec {
  /// Probability of failing each hit (ignored when nth > 0).
  double probability = 0.0;

  /// Fail exactly the nth hit (1-based); with `permanent`, every hit >= n.
  uint64_t nth = 0;
  bool permanent = false;

  /// Stop injecting after this many failures; 0 = unlimited.
  uint64_t max_failures = 0;

  /// If > 0 this is a stall fault: StallMs() reports this duration on the
  /// hits selected above and Hit() never fails for this site.
  uint64_t stall_ms = 0;

  /// Crash fault: when the site fires, the process raises SIGKILL instead
  /// of returning an error — simulating sudden process death (power loss,
  /// OOM-kill) at a deterministic point for crash-recovery testing.
  bool crash = false;

  uint64_t seed = 1;
  StatusCode code = StatusCode::kIOError;
  std::string message;  // default: "injected fault at <site>"
};

/// Process-wide registry of armed fault sites. Thread-safe.
class FaultRegistry {
 public:
  /// The process singleton. Arms sites from $PMKM_FAULTS on first use.
  static FaultRegistry& Global();

  void Arm(const std::string& site, FaultSpec spec) PMKM_EXCLUDES(mu_);

  /// Parses the spec-string grammar above and arms each site.
  Status ArmFromString(const std::string& spec) PMKM_EXCLUDES(mu_);

  /// Records a hit at `site` and returns the injected error if the site is
  /// armed with an error fault that fires on this hit; OK otherwise.
  Status Hit(const std::string& site) PMKM_EXCLUDES(mu_);

  /// Records a hit at `site` and returns the stall duration if the site is
  /// armed with a stall fault that fires on this hit; 0 otherwise.
  uint64_t StallMs(const std::string& site) PMKM_EXCLUDES(mu_);

  // Test hooks. Defined in tests/support/test_hooks.cc, which only test
  // binaries link, so no shipped binary can call them.

  /// Disarms every site and zeroes all counters.
  void Reset() PMKM_EXCLUDES(mu_);
  uint64_t hits(const std::string& site) const PMKM_EXCLUDES(mu_);
  uint64_t failures(const std::string& site) const PMKM_EXCLUDES(mu_);

 private:
  FaultRegistry() = default;

  struct ArmedSite {
    FaultSpec spec;
    Rng rng{1};
    uint64_t hits = 0;
    uint64_t failures = 0;
  };

  // True if this hit (already counted in *site) should misbehave. `site`
  // points into sites_, so the registry lock must be held.
  bool Fires(ArmedSite* site) PMKM_REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<std::string, ArmedSite> sites_ PMKM_GUARDED_BY(mu_);
  // Fast disarmed-path check; the authoritative site table stays under mu_.
  std::atomic<int> armed_count_{0};
};

}  // namespace pmkm

/// Declares a fault site inside a function returning Status or Result<T>:
/// propagates the injected error when the site fires.
#define PMKM_FAULT_POINT(site)                                       \
  do {                                                               \
    ::pmkm::Status _fault_st =                                       \
        ::pmkm::FaultRegistry::Global().Hit(site);                   \
    if (!_fault_st.ok()) return _fault_st;                           \
  } while (false)

#endif  // PMKM_COMMON_FAULT_H_
