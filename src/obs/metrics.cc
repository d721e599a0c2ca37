#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "obs/rolling.h"

namespace pmkm {

// ---------------------------------------------------------------------------
// Histogram

size_t Histogram::BucketIndex(double v) {
  if (!(v > 1.0)) return 0;  // NaN and everything <= 1 land in bucket 0
  const int exp = std::ilogb(v);
  // v in [2^exp, 2^(exp+1)) with exp >= 0 → bucket exp + 1 covers
  // [2^exp, 2^(exp+1)); exact powers of two sit at their lower bound.
  return std::min<size_t>(kBuckets - 1, static_cast<size_t>(exp) + 1);
}

double Histogram::BucketLowerBound(size_t b) {
  return b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b) - 1);
}

double Histogram::BucketUpperBound(size_t b) {
  return std::ldexp(1.0, static_cast<int>(b));
}

void Histogram::Record(double value) {
  if (std::isnan(value)) return;
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  const uint64_t n = count_.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) {
    // First sample initializes both extremes; racing first samples all
    // settle through the CAS loops below.
    double zero = 0.0;
    min_.compare_exchange_strong(zero, value, std::memory_order_relaxed);
    zero = 0.0;
    max_.compare_exchange_strong(zero, value, std::memory_order_relaxed);
  }
  double seen = min_.load(std::memory_order_relaxed);
  while (value < seen && !min_.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen && !max_.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::PercentileFromBuckets(
    const std::array<uint64_t, kBuckets>& buckets, uint64_t count,
    double p, double observed_min, double observed_max) {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(count);
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    const uint64_t in_bucket = buckets[b];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= rank) {
      // Interpolate inside the bucket, clamped to the observed extremes
      // so p0/p100 are exact.
      const double lo = std::max(BucketLowerBound(b), observed_min);
      const double hi = std::min(BucketUpperBound(b), observed_max);
      const double frac = (rank - static_cast<double>(seen)) /
                          static_cast<double>(in_bucket);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    seen += in_bucket;
  }
  return observed_max;
}

double Histogram::Percentile(double p) const {
  std::array<uint64_t, kBuckets> copy;
  for (size_t b = 0; b < kBuckets; ++b) {
    copy[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  uint64_t n = 0;
  for (const uint64_t c : copy) n += c;
  return PercentileFromBuckets(copy, n, p, min(), max());
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot s;
  s.count = count();
  s.sum = sum();
  s.min = min();
  s.max = max();
  s.p50 = Percentile(50);
  s.p95 = Percentile(95);
  s.p99 = Percentile(99);
  s.p999 = Percentile(99.9);
  return s;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

Counter& MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

RollingHistogram& MetricsRegistry::rolling_histogram(
    const std::string& name, uint64_t window_seconds) {
  MutexLock lock(mu_);
  auto& slot = rolling_histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<RollingHistogram>(window_seconds);
  }
  return *slot;
}

void MetricsRegistry::SetRunId(const std::string& run_id) {
  MutexLock lock(mu_);
  run_id_ = run_id;
}

JsonValue MetricsRegistry::ToJson() const {
  MutexLock lock(mu_);
  JsonValue root = JsonValue::Object();
  if (!run_id_.empty()) root.Set("run_id", run_id_);
  JsonValue counters = JsonValue::Object();
  for (const auto& [name, c] : counters_) {
    counters.Set(name, c->value());
  }
  root.Set("counters", std::move(counters));
  JsonValue gauges = JsonValue::Object();
  for (const auto& [name, g] : gauges_) {
    JsonValue entry = JsonValue::Object();
    entry.Set("value", g->value());
    entry.Set("max", g->max());
    gauges.Set(name, std::move(entry));
  }
  root.Set("gauges", std::move(gauges));
  JsonValue histograms = JsonValue::Object();
  for (const auto& [name, h] : histograms_) {
    const Histogram::Snapshot s = h->TakeSnapshot();
    JsonValue entry = JsonValue::Object();
    entry.Set("count", s.count);
    entry.Set("sum", s.sum);
    entry.Set("min", s.min);
    entry.Set("max", s.max);
    entry.Set("p50", s.p50);
    entry.Set("p95", s.p95);
    entry.Set("p99", s.p99);
    entry.Set("p999", s.p999);
    histograms.Set(name, std::move(entry));
  }
  root.Set("histograms", std::move(histograms));
  JsonValue rolling = JsonValue::Object();
  for (const auto& [name, rh] : rolling_histograms_) {
    const RollingHistogram::Snapshot s = rh->TakeSnapshot();
    JsonValue entry = JsonValue::Object();
    entry.Set("window_seconds", s.window_seconds);
    entry.Set("count", s.count);
    entry.Set("sum", s.sum);
    entry.Set("min", s.min);
    entry.Set("max", s.max);
    entry.Set("p50", s.p50);
    entry.Set("p95", s.p95);
    entry.Set("p99", s.p99);
    entry.Set("p999", s.p999);
    entry.Set("total_count", rh->total().count());
    rolling.Set(name, std::move(entry));
  }
  root.Set("rolling", std::move(rolling));
  return root;
}

namespace {

// The prefixed metric name with every character outside [a-zA-Z0-9_]
// replaced, so the HELP text built from it needs no escaping.
std::string PromName(const std::string& prefix, const std::string& name) {
  std::string out;
  for (const char c : prefix.empty() ? name : prefix + "_" + name) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_')
               ? c
               : '_';
  }
  return out;
}

std::string PromNumber(double v) {
  JsonValue j(v);  // reuse the JSON number formatter (integers stay exact)
  return j.Dump();
}

}  // namespace

std::string PromEscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string MetricsRegistry::ToPrometheusText(
    const std::string& prefix) const {
  MutexLock lock(mu_);
  std::string out;
  if (!run_id_.empty()) {
    const std::string p = PromName(prefix, "run_info");
    out += "# HELP " + p + " Active run identity (run_id label).\n";
    out += "# TYPE " + p + " gauge\n";
    out += p + "{run_id=\"" + PromEscapeLabelValue(run_id_) + "\"} 1\n";
  }
  for (const auto& [name, c] : counters_) {
    const std::string p = PromName(prefix, name);
    out += "# HELP " + p + " Cumulative count of " + p + ".\n";
    out += "# TYPE " + p + " counter\n";
    out += p + " " + std::to_string(c->value()) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    const std::string p = PromName(prefix, name);
    out += "# HELP " + p + " Last observed value of " + p + ".\n";
    out += "# TYPE " + p + " gauge\n";
    out += p + " " + std::to_string(g->value()) + "\n";
    out += "# HELP " + p + "_max High-water mark of " + p + ".\n";
    out += "# TYPE " + p + "_max gauge\n";
    out += p + "_max " + std::to_string(g->max()) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const std::string p = PromName(prefix, name);
    const Histogram::Snapshot s = h->TakeSnapshot();
    out += "# HELP " + p + " Distribution of " + p + ".\n";
    out += "# TYPE " + p + " summary\n";
    out += p + "{quantile=\"0.5\"} " + PromNumber(s.p50) + "\n";
    out += p + "{quantile=\"0.95\"} " + PromNumber(s.p95) + "\n";
    out += p + "{quantile=\"0.99\"} " + PromNumber(s.p99) + "\n";
    out += p + "{quantile=\"0.999\"} " + PromNumber(s.p999) + "\n";
    out += p + "_sum " + PromNumber(s.sum) + "\n";
    out += p + "_count " + std::to_string(s.count) + "\n";
  }
  for (const auto& [name, rh] : rolling_histograms_) {
    const std::string p = PromName(prefix, name);
    const RollingHistogram::Snapshot s = rh->TakeSnapshot();
    const std::string window =
        "window=\"" + std::to_string(s.window_seconds) + "s\"";
    const Histogram::Snapshot t = rh->total().TakeSnapshot();
    out += "# HELP " + p + " Distribution of " + p +
           " (quantiles over the trailing window; _sum/_count "
           "cumulative).\n";
    out += "# TYPE " + p + " summary\n";
    out += p + "{" + window + ",quantile=\"0.5\"} " + PromNumber(s.p50) +
           "\n";
    out += p + "{" + window + ",quantile=\"0.95\"} " + PromNumber(s.p95) +
           "\n";
    out += p + "{" + window + ",quantile=\"0.99\"} " + PromNumber(s.p99) +
           "\n";
    out += p + "{" + window + ",quantile=\"0.999\"} " +
           PromNumber(s.p999) + "\n";
    // Cumulative (never-reset) sum/count keep scrapes monotonic.
    out += p + "_sum " + PromNumber(t.sum) + "\n";
    out += p + "_count " + std::to_string(t.count) + "\n";
  }
  return out;
}

}  // namespace pmkm
