#include "common/fault.h"

#include <csignal>
#include <cstdlib>

#include "common/logging.h"

namespace pmkm {

namespace {

Status ParseCode(const std::string& value, StatusCode* out) {
  if (value == "io") {
    *out = StatusCode::kIOError;
  } else if (value == "internal") {
    *out = StatusCode::kInternal;
  } else if (value == "notfound") {
    *out = StatusCode::kNotFound;
  } else if (value == "cancelled") {
    *out = StatusCode::kCancelled;
  } else if (value == "deadline") {
    *out = StatusCode::kDeadlineExceeded;
  } else {
    return Status::InvalidArgument("unknown fault code: " + value);
  }
  return Status::OK();
}

}  // namespace

FaultRegistry& FaultRegistry::Global() {
  static FaultRegistry* registry = [] {
    // Intentionally leaked process singleton (never destroyed, so fault
    // points stay usable during static destruction).
    auto* r = new FaultRegistry();  // pmkm-lint: allow(naked-new)
    if (const char* env = std::getenv("PMKM_FAULTS");
        env != nullptr && env[0] != '\0') {
      const Status st = r->ArmFromString(env);
      if (!st.ok()) {
        PMKM_LOG(Warning) << "ignoring invalid PMKM_FAULTS: " << st;
      }
    }
    return r;
  }();
  return *registry;
}

void FaultRegistry::Arm(const std::string& site, FaultSpec spec) {
  MutexLock lock(mu_);
  ArmedSite armed;
  armed.rng.Reseed(spec.seed);
  armed.spec = std::move(spec);
  const bool inserted = sites_.insert_or_assign(site, std::move(armed)).second;
  if (inserted) armed_count_.fetch_add(1, std::memory_order_relaxed);
}

Status FaultRegistry::ArmFromString(const std::string& spec) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;

    const size_t colon = entry.find(':');
    if (colon == std::string::npos || colon == 0) {
      return Status::InvalidArgument("fault spec entry needs 'site:...': " +
                                     entry);
    }
    const std::string site = entry.substr(0, colon);
    FaultSpec fault;
    size_t kpos = colon + 1;
    while (kpos <= entry.size()) {
      size_t kend = entry.find(',', kpos);
      if (kend == std::string::npos) kend = entry.size();
      const std::string kv = entry.substr(kpos, kend - kpos);
      kpos = kend + 1;
      if (kv.empty()) continue;
      const size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument("fault spec key needs '=': " + kv);
      }
      const std::string key = kv.substr(0, eq);
      const std::string value = kv.substr(eq + 1);
      try {
        if (key == "p") {
          fault.probability = std::stod(value);
        } else if (key == "n") {
          fault.nth = std::stoull(value);
        } else if (key == "perm") {
          fault.permanent = value != "0" && value != "false";
        } else if (key == "max") {
          fault.max_failures = std::stoull(value);
        } else if (key == "stall_ms") {
          fault.stall_ms = std::stoull(value);
        } else if (key == "crash") {
          fault.crash = value != "0" && value != "false";
        } else if (key == "seed") {
          fault.seed = std::stoull(value);
        } else if (key == "code") {
          PMKM_RETURN_NOT_OK(ParseCode(value, &fault.code));
        } else if (key == "msg") {
          fault.message = value;
        } else {
          return Status::InvalidArgument("unknown fault spec key: " + key);
        }
      } catch (const std::exception&) {
        return Status::InvalidArgument("bad fault spec value: " + kv);
      }
    }
    Arm(site, std::move(fault));
  }
  return Status::OK();
}

bool FaultRegistry::Fires(ArmedSite* site) {  // requires mu_ (see header)
  const FaultSpec& spec = site->spec;
  bool fire = false;
  if (spec.nth > 0) {
    fire = spec.permanent ? site->hits >= spec.nth : site->hits == spec.nth;
  } else if (spec.probability > 0.0) {
    fire = site->rng.UniformDouble() < spec.probability;
  }
  if (fire && spec.max_failures > 0 &&
      site->failures >= spec.max_failures) {
    fire = false;
  }
  if (fire) ++site->failures;
  return fire;
}

Status FaultRegistry::Hit(const std::string& site) {
  if (armed_count_.load(std::memory_order_relaxed) == 0) {
    return Status::OK();
  }
  // Fault sites mark I/O and operator boundaries — exactly the places
  // whose relative order matters under failure injection, so they double
  // as interleaving points for the schedule explorer.
  PMKM_SCHED_POINT("fault.hit");
  MutexLock lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end()) return Status::OK();
  ArmedSite& armed = it->second;
  ++armed.hits;
  if (armed.spec.stall_ms > 0) return Status::OK();  // handled by StallMs
  if (!Fires(&armed)) return Status::OK();
  if (armed.spec.crash) {
    // Sudden-death fault: die exactly here, as SIGKILL would. No cleanup,
    // no flushing — the crash-recovery machinery must cope with whatever
    // is (not) on disk at this instant.
    (void)::raise(SIGKILL);
  }
  return Status(armed.spec.code,
                armed.spec.message.empty()
                    ? "injected fault at " + site
                    : armed.spec.message);
}

uint64_t FaultRegistry::StallMs(const std::string& site) {
  if (armed_count_.load(std::memory_order_relaxed) == 0) return 0;
  MutexLock lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end()) return 0;
  ArmedSite& armed = it->second;
  if (armed.spec.stall_ms == 0) return 0;
  ++armed.hits;
  return Fires(&armed) ? armed.spec.stall_ms : 0;
}

}  // namespace pmkm
