// Slicing strategies — the paper's §6 future work: "data cells can be
// partitioned into spatially non-overlapping subcells, or a mostly
// overlapping cells as in our test cases, or in a 'salami'-type slicing
// strategy".
//
// SplitRandom is the paper's "mostly overlapping" test setup,
// SplitContiguous is the salami strategy, and SplitSpatialGrid is the
// spatially non-overlapping subcell split. ShufflePoints and SlicePoints
// are the row operations the experiments build their partitions from.

#ifndef PMKM_BENCH_LIB_DATA_SLICING_H_
#define PMKM_BENCH_LIB_DATA_SLICING_H_

#include <vector>

#include "common/rng.h"
#include "data/dataset.h"

namespace pmkm {

/// Randomly permutes the point order of `data` in place (Fisher–Yates).
void ShufflePoints(Dataset* data, Rng* rng);

/// Copies rows [begin, end) of `data` into a new dataset.
Dataset SlicePoints(const Dataset& data, size_t begin, size_t end);

/// Splits `data` into `num_parts` near-equal random partitions — the
/// paper's "randomly distributed over 5 or 10 chunks" slicing. Sizes differ
/// by at most one point. Requires num_parts >= 1.
std::vector<Dataset> SplitRandom(const Dataset& data, size_t num_parts,
                                 Rng* rng);

/// Splits `data` into `num_parts` contiguous slices in arrival order — the
/// "salami" slicing the paper lists as future work. Sizes differ by at most
/// one point.
std::vector<Dataset> SplitContiguous(const Dataset& data, size_t num_parts);

/// Splits `cell` into at most grid_side × grid_side spatially disjoint
/// subcells by bucketing coordinates (dim `x_dim`, `y_dim`) on a uniform
/// grid over their bounding box. Empty subcells are dropped, so fewer than
/// grid_side² parts may be returned; points on the max edge fall into the
/// last row/column. Requires grid_side ≥ 1 and x_dim ≠ y_dim < dim.
Result<std::vector<Dataset>> SplitSpatialGrid(const Dataset& cell,
                                              size_t grid_side,
                                              size_t x_dim = 0,
                                              size_t y_dim = 1);

/// Splits `cell` into `num_parts` stripes by sorting on one coordinate —
/// a 1-D "salami" slicer that, unlike SplitContiguous, cuts along a
/// spatial axis rather than arrival order. Stripe sizes differ by at most
/// one point.
Result<std::vector<Dataset>> SplitStripes(const Dataset& cell,
                                          size_t num_parts,
                                          size_t sort_dim = 0);

}  // namespace pmkm

#endif  // PMKM_BENCH_LIB_DATA_SLICING_H_
