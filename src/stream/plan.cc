#include "stream/plan.h"

#include <algorithm>
#include <thread>

namespace pmkm {

size_t ResourceModel::EffectiveCores() const {
  if (cores > 0) return cores;
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

PhysicalPlan PlanPartialMerge(size_t dim, size_t expected_points_per_cell,
                              const ResourceModel& resources,
                              size_t chunk_points) {
  PMKM_CHECK(dim >= 1);
  PhysicalPlan plan;

  // Memory → partition size. Factor 4: the point buffer itself, the
  // assignment array, centroid sums, and queue slack.
  const size_t bytes_per_point = dim * sizeof(double) * 4;
  plan.chunk_points =
      chunk_points > 0
          ? chunk_points
          : std::max<size_t>(
                1, resources.memory_bytes_per_operator / bytes_per_point);

  // Cores → clones: one partial clone per core. The scan and merge threads
  // mostly block on their queues (partial k-means is nearly all the CPU),
  // so they get no core of their own. Never more clones than there are
  // chunks to chew.
  size_t clones = resources.EffectiveCores();
  if (expected_points_per_cell > 0) {
    const size_t chunks = std::max<size_t>(
        1,
        (expected_points_per_cell + plan.chunk_points - 1) /
            plan.chunk_points);
    clones = std::min(clones, chunks);
  }
  plan.partial_clones = std::max<size_t>(1, clones);

  plan.queue_capacity =
      PlanQueueCapacity(plan.partial_clones, plan.chunk_points, dim,
                        resources.memory_bytes_per_operator);
  return plan;
}

size_t PlanQueueCapacity(size_t partial_clones, size_t chunk_points,
                         size_t dim, size_t memory_bytes_per_operator) {
  const size_t clones = std::max<size_t>(1, partial_clones);
  // A popped chunk leaves the queue, so depth `clones` is one chunk in
  // flight (held by its clone) plus one buffered per clone...
  const size_t wanted = clones;
  // ...but never more buffered chunks than the per-operator memory budget
  // covers, so back-pressure still binds memory when chunks are forced
  // large.
  const size_t chunk_bytes =
      std::max<size_t>(1, chunk_points * dim * sizeof(double));
  const size_t affordable =
      clones * (memory_bytes_per_operator / chunk_bytes);
  return std::max<size_t>(2, std::min(wanted, affordable));
}

std::string RunReport::Summary() const {
  std::string out = "policy=";
  out += FailurePolicyToString(failure_policy);
  out += ", cells_clustered=" + std::to_string(cells_clustered);
  out += ", quarantined=" + std::to_string(quarantined.size());
  out += ", io_retries=" + std::to_string(io_retries);
  out += ", chunks_dropped=" + std::to_string(chunks_dropped);
  out += ", operator_restarts=" + std::to_string(operator_restarts);
  if (cells_resumed > 0 || checkpoint_cells > 0 || checkpoint_degraded) {
    out += ", cells_resumed=" + std::to_string(cells_resumed);
    out += ", checkpointed=" + std::to_string(checkpoint_cells);
    out += " (epoch " + std::to_string(checkpoint_epoch) + ")";
    if (checkpoint_torn_tail) out += ", torn_tail_truncated";
    if (checkpoint_degraded) out += ", CHECKPOINT-DEGRADED";
  }
  out += degraded ? ", DEGRADED" : ", complete";
  if (!stalled_operators.empty()) {
    out += ", stalled=[" + stalled_operators + "]";
  }
  for (const QuarantinedCellReport& q : quarantined) {
    out += "\n  quarantined ";
    out += q.cell_known ? q.cell.ToString() : "<unknown cell>";
    if (!q.path.empty()) out += " (" + q.path + ")";
    out += ": " + q.reason;
  }
  return out;
}

}  // namespace pmkm
