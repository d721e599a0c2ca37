#include "obs/profiler.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>

#if defined(__linux__)
#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>
#endif

#include "common/file.h"

namespace pmkm {
namespace obs {

#if defined(__linux__)

namespace {

// The previous SIGPROF disposition, restored by Stop().
struct sigaction g_previous_action;

// The singleton as seen from signal context. The handler must not call
// Global(): the function-local static there runs __cxa_guard_acquire and
// operator new on first use, neither async-signal-safe (pmkm_ctxcheck
// witness: SignalHandler -> Global -> new CpuProfiler). Global() publishes
// the instance here before Start() can install the handler, so the
// handler does one atomic load and bails while unset.
std::atomic<CpuProfiler*> g_profiler{nullptr};

std::string Demangle(const char* name) {
  int status = 0;
  char* demangled = abi::__cxa_demangle(name, nullptr, nullptr, &status);
  if (status != 0 || demangled == nullptr) {
    std::free(demangled);
    return name;
  }
  std::string out = demangled;
  std::free(demangled);
  return out;
}

std::string SymbolizePc(void* pc) {
  Dl_info info;
  // The PC in a non-leaf frame points at the *return* address; step back
  // one byte so a call at the very end of a function resolves to it.
  void* lookup = static_cast<char*>(pc) - 1;
  if (dladdr(lookup, &info) != 0 && info.dli_sname != nullptr) {
    return Demangle(info.dli_sname);
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%zx",
                reinterpret_cast<size_t>(pc));
  return buf;
}

// Folded stacks must not contain the separator characters.
std::string SanitizeFrame(std::string frame) {
  for (char& c : frame) {
    if (c == ';' || c == '\n' || c == ' ') c = '_';
  }
  return frame;
}

}  // namespace

CpuProfiler& CpuProfiler::Global() {
  // Intentionally leaked: the SIGPROF handler may fire during static
  // destruction, so the singleton must outlive every other static.
  static CpuProfiler* profiler =
      new CpuProfiler();  // pmkm-lint: allow(naked-new)
  g_profiler.store(profiler, std::memory_order_release);
  return *profiler;
}

void CpuProfiler::SignalHandler(int /*signum*/) {
  CpuProfiler* const published = g_profiler.load(std::memory_order_acquire);
  if (published == nullptr) return;
  CpuProfiler& p = *published;
  if (!p.armed_.load(std::memory_order_relaxed)) return;
  void* frames[128];
  const int want = static_cast<int>(
      std::min<size_t>(p.max_depth_, sizeof(frames) / sizeof(frames[0])));
  const int n = backtrace(frames, want);
  if (n <= 0) return;
  const uint64_t idx = p.next_.fetch_add(1, std::memory_order_relaxed);
  const size_t slot = idx % p.max_samples_;
  // Mark the slot torn while rewriting; readers skip depth == 0.
  p.depths_[slot].store(0, std::memory_order_release);
  std::memcpy(&p.pcs_[slot * p.max_depth_], frames,
              static_cast<size_t>(n) * sizeof(void*));
  p.depths_[slot].store(n, std::memory_order_release);
}

Status CpuProfiler::Start(const Options& options) {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("profiler already running");
  }
  if (options.hz <= 0 || options.hz > 10000) {
    return Status::InvalidArgument("profiler hz out of range (1..10000)");
  }
  if (options.max_samples == 0 || options.max_depth == 0) {
    return Status::InvalidArgument("profiler ring must be non-empty");
  }
  max_samples_ = options.max_samples;
  max_depth_ = std::min<size_t>(options.max_depth, 128);
  pcs_.assign(max_samples_ * max_depth_, nullptr);
  depths_ = std::vector<std::atomic<int>>(max_samples_);
  next_.store(0, std::memory_order_relaxed);

  // Warm up backtrace() outside signal context: its first call may
  // dlopen libgcc, which is not async-signal-safe.
  void* warmup[4];
  (void)backtrace(warmup, 4);

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = &CpuProfiler::SignalHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  if (sigaction(SIGPROF, &action, &g_previous_action) != 0) {
    return Status::Internal("sigaction(SIGPROF) failed");
  }
  armed_.store(true, std::memory_order_release);

  itimerval timer;
  timer.it_interval.tv_sec = 0;
  timer.it_interval.tv_usec = static_cast<suseconds_t>(1000000 / options.hz);
  if (timer.it_interval.tv_usec == 0) timer.it_interval.tv_usec = 1;
  timer.it_value = timer.it_interval;
  if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    armed_.store(false, std::memory_order_release);
    sigaction(SIGPROF, &g_previous_action, nullptr);
    return Status::Internal("setitimer(ITIMER_PROF) failed");
  }
  running_.store(true, std::memory_order_release);
  return Status::OK();
}

Status CpuProfiler::Stop() {
  if (!running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("profiler is not running");
  }
  itimerval off;
  std::memset(&off, 0, sizeof(off));
  setitimer(ITIMER_PROF, &off, nullptr);
  armed_.store(false, std::memory_order_release);
  sigaction(SIGPROF, &g_previous_action, nullptr);
  running_.store(false, std::memory_order_release);
  return Status::OK();
}

uint64_t CpuProfiler::sample_count() const {
  const uint64_t total = next_.load(std::memory_order_relaxed);
  return std::min<uint64_t>(total, max_samples_);
}

std::string CpuProfiler::FoldedStacks() const {
  const uint64_t have = sample_count();
  if (have == 0) return "";
  // Symbolize each unique PC once.
  std::map<void*, std::string> symbols;
  std::map<std::string, uint64_t> folded;
  for (uint64_t i = 0; i < have; ++i) {
    const int depth = depths_[i].load(std::memory_order_acquire);
    if (depth <= 0) continue;  // torn slot (handler mid-rewrite)
    const void* const* frames = &pcs_[i * max_depth_];
    // backtrace() returns leaf-first and its first frames belong to the
    // signal machinery (handler + kernel trampoline). Cut everything up
    // to and including the trampoline; if it does not symbolize (stripped
    // vdso), fall back to skipping the handler frame pair.
    int start = -1;
    const int probe = std::min(depth, 6);
    for (int f = 0; f < probe; ++f) {
      void* pc = const_cast<void*>(frames[f]);
      auto it = symbols.find(pc);
      if (it == symbols.end()) {
        it = symbols.emplace(pc, SymbolizePc(pc)).first;
      }
      if (it->second.find("restore_rt") != std::string::npos ||
          it->second.find("killpg") != std::string::npos ||
          it->second.find("sigaction") != std::string::npos) {
        start = f + 1;
      }
    }
    if (start < 0) start = std::min(depth, 2);
    if (start >= depth) continue;
    std::string key;
    // Root-first: walk from the outermost frame down to the leaf.
    for (int f = depth - 1; f >= start; --f) {
      void* pc = const_cast<void*>(frames[f]);
      auto it = symbols.find(pc);
      if (it == symbols.end()) {
        it = symbols.emplace(pc, SymbolizePc(pc)).first;
      }
      if (!key.empty()) key += ';';
      key += SanitizeFrame(it->second);
    }
    if (!key.empty()) ++folded[key];
  }
  // Emit sorted by count descending so the hottest stack leads.
  std::vector<std::pair<std::string, uint64_t>> rows(folded.begin(),
                                                     folded.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::string out;
  for (const auto& [stack, count] : rows) {
    out += stack + " " + std::to_string(count) + "\n";
  }
  return out;
}

#else  // !defined(__linux__)

CpuProfiler& CpuProfiler::Global() {
  // Same intentionally-leaked singleton as the POSIX build.
  static CpuProfiler* profiler =
      new CpuProfiler();  // pmkm-lint: allow(naked-new)
  return *profiler;
}

void CpuProfiler::SignalHandler(int /*signum*/) {}

Status CpuProfiler::Start(const Options&) {
  return Status::NotImplemented(
      "the sampling profiler requires linux (SIGPROF/backtrace)");
}

Status CpuProfiler::Stop() {
  return Status::FailedPrecondition("profiler is not running");
}

uint64_t CpuProfiler::sample_count() const { return 0; }
std::string CpuProfiler::FoldedStacks() const { return ""; }

#endif  // defined(__linux__)

Status CpuProfiler::WriteFolded(const std::string& path) const {
  return AtomicWriteFile(path, FoldedStacks());
}

std::vector<ProfileFrameTotals> AggregateFolded(const std::string& folded,
                                                uint64_t* total_samples) {
  struct Totals {
    uint64_t self = 0;
    uint64_t total = 0;
  };
  std::map<std::string, Totals> frames;
  uint64_t grand_total = 0;
  std::istringstream in(folded);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos || space + 1 >= line.size()) continue;
    uint64_t count = 0;
    try {
      count = std::stoull(line.substr(space + 1));
    } catch (...) {
      continue;
    }
    grand_total += count;
    const std::string stack = line.substr(0, space);
    // Every distinct frame on the stack gets `count` added to its total;
    // the leaf (last frame) also gets it as self time.
    std::vector<std::string> parts;
    size_t pos = 0;
    while (pos <= stack.size()) {
      const size_t semi = stack.find(';', pos);
      const size_t end = semi == std::string::npos ? stack.size() : semi;
      if (end > pos) parts.push_back(stack.substr(pos, end - pos));
      if (semi == std::string::npos) break;
      pos = semi + 1;
    }
    if (parts.empty()) continue;
    std::map<std::string, bool> seen;
    for (const std::string& frame : parts) {
      if (!seen.emplace(frame, true).second) continue;  // recursion
      frames[frame].total += count;
    }
    frames[parts.back()].self += count;
  }
  if (total_samples != nullptr) *total_samples = grand_total;
  std::vector<ProfileFrameTotals> out;
  out.reserve(frames.size());
  for (const auto& [frame, totals] : frames) {
    out.push_back(ProfileFrameTotals{frame, totals.self, totals.total});
  }
  std::sort(out.begin(), out.end(),
            [](const ProfileFrameTotals& a, const ProfileFrameTotals& b) {
              if (a.self != b.self) return a.self > b.self;
              if (a.total != b.total) return a.total > b.total;
              return a.frame < b.frame;
            });
  return out;
}

}  // namespace obs
}  // namespace pmkm
