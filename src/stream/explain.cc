#include "stream/explain.h"

#include <sstream>

#include "cluster/kernels/kernel.h"

namespace pmkm {

namespace {

// "name (cap C, high-water H, N pushed)" for one exchange, or a
// placeholder when the snapshot is missing (e.g. a failed run).
std::string ExchangeLine(const StreamRunResult& result,
                         const std::string& name,
                         const std::string& payload) {
  for (const QueueStatsSnapshot& q : result.queues) {
    if (q.name != name) continue;
    return "exchange \"" + name + "\" (" + payload + ", cap " +
           std::to_string(q.capacity) + ", high-water " +
           std::to_string(q.high_water_mark) + ", " +
           std::to_string(q.total_pushed) + " pushed)";
  }
  return "exchange \"" + name + "\" (" + payload + ")";
}

}  // namespace

std::string ExplainPartialMergePlan(size_t num_buckets,
                                    size_t total_points, size_t dim,
                                    const KMeansConfig& partial,
                                    const MergeKMeansConfig& merge,
                                    const PhysicalPlan& plan) {
  std::ostringstream os;
  os << "merge-kmeans (k=" << merge.k << ", seeding=heaviest, restarts=1)\n";
  os << "└─ exchange (queue cap " << plan.queue_capacity
     << ", centroid sets)\n";
  const DistanceKernel& kernel = partial.lloyd.kernel != nullptr
                                     ? *partial.lloyd.kernel
                                     : GetKernel(KernelKind::kAuto);
  os << "   └─ partial-kmeans ×" << plan.partial_clones
     << " clone" << (plan.partial_clones == 1 ? "" : "s") << " (k="
     << partial.k << ", R=" << partial.restarts << ", chunk="
     << plan.chunk_points << " pts, kernel=" << kernel.name() << ")\n";
  os << "      └─ exchange (queue cap " << plan.queue_capacity
     << ", point chunks)\n";
  os << "         └─ scan (" << num_buckets << " bucket"
     << (num_buckets == 1 ? "" : "s") << ", ~" << total_points
     << " pts, dim " << dim << ")\n";
  return os.str();
}

std::string ExplainAnalyzePartialMerge(const KMeansConfig& partial,
                                       const MergeKMeansConfig& merge,
                                       const StreamRunResult& result) {
  // Regroup the executor-ordered instance list (scan, partials, merge)
  // into the three plan nodes; partial clones also get per-instance rows.
  OperatorStats scan_stats;
  OperatorStats partial_total;
  partial_total.name = "partial-kmeans";
  std::vector<const OperatorStats*> partial_instances;
  OperatorStats merge_stats;
  for (const OperatorStats& s : result.operator_stats) {
    if (s.name.rfind("partial-kmeans", 0) == 0) {
      partial_total.MergeFrom(s);
      partial_instances.push_back(&s);
    } else if (s.name == "merge-kmeans") {
      merge_stats = s;
    } else {
      scan_stats = s;
    }
  }

  std::ostringstream os;
  os << "merge-kmeans (k=" << merge.k << ", seeding=heaviest, restarts=1)\n";
  os << "│    " << merge_stats.ToString() << "\n";
  os << "└─ " << ExchangeLine(result, "centroids", "centroid sets") << "\n";
  os << "   └─ partial-kmeans ×" << partial_instances.size() << " clone"
     << (partial_instances.size() == 1 ? "" : "s") << " (k=" << partial.k
     << ", R=" << partial.restarts << ", chunk=" << result.plan.chunk_points
     << " pts)\n";
  os << "      │    " << partial_total.ToString() << "\n";
  if (partial_instances.size() > 1) {
    for (size_t i = 0; i < partial_instances.size(); ++i) {
      os << "      │    #" << i << ": " << partial_instances[i]->ToString()
         << "\n";
    }
  }
  os << "      └─ " << ExchangeLine(result, "points", "point chunks")
     << "\n";
  os << "         └─ " << (scan_stats.name.empty() ? "scan" : scan_stats.name)
     << "\n";
  os << "            │    " << scan_stats.ToString() << "\n";
  os << "total: wall=" << FormatSeconds(result.wall_seconds)
     << ", cells=" << result.cells.size()
     << ", quarantined=" << result.report.quarantined.size()
     << (result.report.degraded ? " (DEGRADED)" : "") << "\n";
  return os.str();
}

JsonValue RunReportToJson(const RunReport& report) {
  JsonValue out = JsonValue::Object();
  out.Set("failure_policy", FailurePolicyToString(report.failure_policy));
  out.Set("cells_clustered", report.cells_clustered);
  out.Set("io_retries", report.io_retries);
  out.Set("chunks_dropped", report.chunks_dropped);
  JsonValue lloyd = JsonValue::Object();
  lloyd.Set("pruned_points", report.partial_lloyd.pruned_points);
  lloyd.Set("survivors", report.partial_lloyd.survivors);
  lloyd.Set("survivor_distances", report.partial_lloyd.survivor_distances);
  lloyd.Set("empty_repairs", report.partial_lloyd.empty_repairs);
  out.Set("partial_lloyd", std::move(lloyd));
  out.Set("degraded", report.degraded);
  JsonValue quarantined = JsonValue::Array();
  for (const QuarantinedCellReport& q : report.quarantined) {
    JsonValue j = JsonValue::Object();
    if (!q.path.empty()) j.Set("path", q.path);
    if (q.cell_known) j.Set("cell", q.cell.ToString());
    j.Set("reason", q.reason);
    quarantined.Append(std::move(j));
  }
  out.Set("quarantined", std::move(quarantined));
  if (report.cells_resumed > 0 || report.checkpoint_cells > 0 ||
      report.checkpoint_degraded) {
    JsonValue ckpt = JsonValue::Object();
    ckpt.Set("cells_resumed", report.cells_resumed);
    ckpt.Set("cells_journaled", report.checkpoint_cells);
    ckpt.Set("epoch", report.checkpoint_epoch);
    ckpt.Set("torn_tail", report.checkpoint_torn_tail);
    ckpt.Set("degraded", report.checkpoint_degraded);
    out.Set("checkpoint", std::move(ckpt));
  }
  return out;
}

JsonValue StreamRunResultToJson(const StreamRunResult& result) {
  JsonValue out = JsonValue::Object();
  if (!result.run_id.empty()) out.Set("run_id", result.run_id);
  out.Set("wall_seconds", result.wall_seconds);
  JsonValue plan = JsonValue::Object();
  plan.Set("chunk_points", result.plan.chunk_points);
  plan.Set("partial_clones", result.plan.partial_clones);
  plan.Set("queue_capacity", result.plan.queue_capacity);
  out.Set("plan", std::move(plan));
  out.Set("report", RunReportToJson(result.report));
  JsonValue operators = JsonValue::Array();
  for (const OperatorStats& stats : result.operator_stats) {
    operators.Append(stats.ToJson());
  }
  out.Set("operators", std::move(operators));
  JsonValue queues = JsonValue::Array();
  for (const QueueStatsSnapshot& q : result.queues) {
    JsonValue j = JsonValue::Object();
    j.Set("name", q.name);
    j.Set("capacity", q.capacity);
    j.Set("high_water_mark", q.high_water_mark);
    j.Set("total_pushed", q.total_pushed);
    queues.Append(std::move(j));
  }
  out.Set("queues", std::move(queues));
  // Per-cell summary only: the centroid payload belongs in the model
  // files, not a diagnostics endpoint.
  JsonValue cells = JsonValue::Array();
  for (const auto& [cell, clustering] : result.cells) {
    JsonValue j = JsonValue::Object();
    j.Set("cell", cell.ToString());
    j.Set("k", clustering.model.centroids.size());
    j.Set("input_points", clustering.input_points);
    j.Set("pooled_centroids", clustering.pooled_centroids);
    j.Set("sse", clustering.model.sse);
    j.Set("iterations", clustering.model.iterations);
    j.Set("merge_seconds", clustering.merge_seconds);
    cells.Append(std::move(j));
  }
  out.Set("cells", std::move(cells));
  return out;
}

}  // namespace pmkm
