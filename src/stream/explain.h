// EXPLAIN rendering for partial/merge query plans: a textual tree in the
// spirit of a DBMS EXPLAIN, showing what the optimizer chose (partition
// size from the memory budget, clone count from the cores) before a plan
// runs. Exposed through `pmkm_cluster --explain`.

#ifndef PMKM_STREAM_EXPLAIN_H_
#define PMKM_STREAM_EXPLAIN_H_

#include <string>
#include <vector>

#include "cluster/kmeans.h"
#include "cluster/merge.h"
#include "stream/plan.h"

namespace pmkm {

/// Renders the physical plan the optimizer would execute for the given
/// inputs, e.g.:
///
///   merge-kmeans (k=40, seeding=heaviest)
///   └─ exchange (queue cap 8, centroid sets)
///      └─ partial-kmeans ×8 clones (k=40, R=10, chunk=5461 pts)
///         └─ exchange (queue cap 8, point chunks)
///            └─ scan (3 buckets, ~60000 pts, dim 6)
std::string ExplainPartialMergePlan(size_t num_buckets,
                                    size_t total_points, size_t dim,
                                    const KMeansConfig& partial,
                                    const MergeKMeansConfig& merge,
                                    const PhysicalPlan& plan);

/// EXPLAIN ANALYZE: the same plan tree annotated with what actually
/// happened — per-operator rows/bytes in and out, wall / thread-CPU /
/// queue-wait time, k-means iterations and restarts, retries and drops
/// (partial clones aggregated, then listed per instance), and per-exchange
/// high-water marks. Exposed through `pmkm_cluster --stats`.
std::string ExplainAnalyzePartialMerge(const KMeansConfig& partial,
                                       const MergeKMeansConfig& merge,
                                       const StreamRunResult& result);

/// The resilience report as JSON (a sub-object of the run result JSON).
JsonValue RunReportToJson(const RunReport& report);

/// The full run outcome as JSON: plan knobs, wall time, run id, the
/// report, per-operator stats and queue snapshots, plus a per-cell
/// summary (cells carry counts and SSE, not the centroid payload). This
/// is what the engine publishes to the debug server's /runz.
JsonValue StreamRunResultToJson(const StreamRunResult& result);

}  // namespace pmkm

#endif  // PMKM_STREAM_EXPLAIN_H_
