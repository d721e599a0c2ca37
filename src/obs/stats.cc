#include "obs/stats.h"

#include <cstdio>

#include "obs/metrics.h"

namespace pmkm {

void OperatorStats::MergeFrom(const OperatorStats& other) {
  if (kernel.empty()) kernel = other.kernel;
  rows_in += other.rows_in;
  rows_out += other.rows_out;
  bytes_in += other.bytes_in;
  bytes_out += other.bytes_out;
  wall_seconds += other.wall_seconds;
  cpu_seconds += other.cpu_seconds;
  queue_wait_seconds += other.queue_wait_seconds;
  kmeans_iterations += other.kmeans_iterations;
  kmeans_restarts += other.kmeans_restarts;
  lloyd += other.lloyd;
  retries += other.retries;
  items_dropped += other.items_dropped;
}

std::string FormatBytes(uint64_t bytes) {
  char buf[32];
  if (bytes < 1024) {
    std::snprintf(buf, sizeof(buf), "%lluB",
                  static_cast<unsigned long long>(bytes));
  } else if (bytes < (1ULL << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1fKiB",
                  static_cast<double>(bytes) / 1024.0);
  } else if (bytes < (1ULL << 30)) {
    std::snprintf(buf, sizeof(buf), "%.1fMiB",
                  static_cast<double>(bytes) / (1ULL << 20));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fGiB",
                  static_cast<double>(bytes) / (1ULL << 30));
  }
  return buf;
}

std::string FormatSeconds(double seconds) {
  char buf[32];
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.0fus", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3fs", seconds);
  }
  return buf;
}

std::string OperatorStats::ToString() const {
  std::string out;
  out += "rows=" + std::to_string(rows_in) + "/" +
         std::to_string(rows_out);
  out += " bytes=" + FormatBytes(bytes_in) + "/" + FormatBytes(bytes_out);
  if (!kernel.empty()) out += " kernel=" + kernel;
  out += " wall=" + FormatSeconds(wall_seconds);
  out += " cpu=" + FormatSeconds(cpu_seconds);
  out += " queue_wait=" + FormatSeconds(queue_wait_seconds);
  if (kmeans_iterations > 0) {
    out += " iters=" + std::to_string(kmeans_iterations);
    out += " kmeans_restarts=" + std::to_string(kmeans_restarts);
    out += " empty_repairs=" + std::to_string(lloyd.empty_repairs);
  }
  if (lloyd.pruned_points > 0) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " scan_frac=%.3f",
                  static_cast<double>(lloyd.survivors) /
                      static_cast<double>(lloyd.pruned_points));
    out += buf;
    if (lloyd.survivors > 0) {
      std::snprintf(buf, sizeof(buf), " dist/survivor=%.2f",
                    static_cast<double>(lloyd.survivor_distances) /
                        static_cast<double>(lloyd.survivors));
      out += buf;
    }
  }
  out += " retries=" + std::to_string(retries);
  if (items_dropped > 0) {
    out += " dropped=" + std::to_string(items_dropped);
  }
  return out;
}

JsonValue OperatorStats::ToJson() const {
  JsonValue j = JsonValue::Object();
  j.Set("name", name);
  if (!kernel.empty()) j.Set("kernel", kernel);
  j.Set("rows_in", rows_in);
  j.Set("rows_out", rows_out);
  j.Set("bytes_in", bytes_in);
  j.Set("bytes_out", bytes_out);
  j.Set("wall_seconds", wall_seconds);
  j.Set("cpu_seconds", cpu_seconds);
  j.Set("queue_wait_seconds", queue_wait_seconds);
  j.Set("kmeans_iterations", kmeans_iterations);
  j.Set("kmeans_restarts", kmeans_restarts);
  j.Set("pruned_points", lloyd.pruned_points);
  j.Set("survivors", lloyd.survivors);
  j.Set("survivor_distances", lloyd.survivor_distances);
  j.Set("empty_repairs", lloyd.empty_repairs);
  j.Set("retries", retries);
  j.Set("items_dropped", items_dropped);
  return j;
}

void OperatorStats::ExportTo(MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  const std::string prefix = "op." + name + ".";
  registry->counter(prefix + "rows_in").Increment(rows_in);
  registry->counter(prefix + "rows_out").Increment(rows_out);
  registry->counter(prefix + "bytes_in").Increment(bytes_in);
  registry->counter(prefix + "bytes_out").Increment(bytes_out);
  registry->counter(prefix + "wall_us")
      .Increment(static_cast<uint64_t>(wall_seconds * 1e6));
  registry->counter(prefix + "cpu_us")
      .Increment(static_cast<uint64_t>(cpu_seconds * 1e6));
  registry->counter(prefix + "queue_wait_us")
      .Increment(static_cast<uint64_t>(queue_wait_seconds * 1e6));
  registry->counter(prefix + "kmeans_iterations")
      .Increment(kmeans_iterations);
  registry->counter(prefix + "kmeans_restarts").Increment(kmeans_restarts);
  registry->counter(prefix + "pruned_points").Increment(lloyd.pruned_points);
  registry->counter(prefix + "survivors").Increment(lloyd.survivors);
  registry->counter(prefix + "survivor_distances")
      .Increment(lloyd.survivor_distances);
  registry->counter(prefix + "empty_repairs").Increment(lloyd.empty_repairs);
  registry->counter(prefix + "retries").Increment(retries);
  registry->counter(prefix + "items_dropped").Increment(items_dropped);
}

}  // namespace pmkm
