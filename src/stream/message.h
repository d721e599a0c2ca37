// Messages flowing between the stream operators of the partial/merge plan.

#ifndef PMKM_STREAM_MESSAGE_H_
#define PMKM_STREAM_MESSAGE_H_

#include <cstdint>
#include <string>

#include "data/dataset.h"
#include "data/grid.h"
#include "data/weighted.h"

namespace pmkm {

/// One memory-sized partition of a grid cell, emitted by a scan operator.
/// `total_partitions` lets the merge operator detect cell completion.
struct PointChunk {
  GridCellId cell;
  uint32_t partition_id = 0;
  uint32_t total_partitions = 1;
  Dataset points{1};

  /// Quarantine marker: the cell's data could not be (fully) produced and
  /// the whole cell must be discarded downstream. Carries no points.
  bool dropped = false;
  std::string drop_reason;
};

/// One partial-k-means output: the weighted centroids of one partition.
struct CentroidMessage {
  GridCellId cell;
  uint32_t partition_id = 0;
  uint32_t total_partitions = 1;
  WeightedDataset centroids{1};
  size_t input_points = 0;

  /// Quarantine marker forwarded/originated by a partial operator: the
  /// merge operator discards the cell and records it as skipped.
  bool dropped = false;
  std::string drop_reason;
};

}  // namespace pmkm

#endif  // PMKM_STREAM_MESSAGE_H_
