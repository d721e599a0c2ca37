// Lat/lon grid cells and the index that bins swath points into them.
//
// The paper compresses geospatial data per 1°×1° grid cell: a scan pass
// sorts points into grid buckets, and every later stage (clustering,
// compression) operates on one bucket at a time (paper §3.1).

#ifndef PMKM_DATA_GRID_H_
#define PMKM_DATA_GRID_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "data/dataset.h"

namespace pmkm {

/// Identifies one grid cell by integer indices. For the default 1° grid,
/// lat_index ∈ [-90, 89] and lon_index ∈ [-180, 179]; cell (a, b) covers
/// [a, a+1)° latitude × [b, b+1)° longitude.
struct GridCellId {
  int32_t lat_index = 0;
  int32_t lon_index = 0;

  auto operator<=>(const GridCellId&) const = default;

  /// "cell_<lat>_<lon>", used as bucket file stem.
  std::string ToString() const;
};

/// Bins points into grid cells. Points carry latitude in coordinate 0 and
/// longitude in coordinate 1; all coordinates (including lat/lon) are kept
/// in the bucket, matching the paper's cells of full measurement vectors.
class GridIndex {
 public:
  /// `cell_degrees` is the cell edge length (default 1°, like MISR).
  explicit GridIndex(size_t dim, double cell_degrees = 1.0);

  /// Cell containing the given coordinates. Latitude is clamped to
  /// [-90, 90), longitude wrapped into [-180, 180).
  GridCellId CellOf(double lat_deg, double lon_deg) const;

  /// Adds one point (point[0]=lat, point[1]=lon) to its cell's bucket.
  Status Add(std::span<const double> point);

  /// Adds every point of `data`.
  Status AddAll(const Dataset& data);

  size_t num_cells() const { return buckets_.size(); }
  size_t num_points() const { return num_points_; }
  size_t dim() const { return dim_; }
  double cell_degrees() const { return cell_degrees_; }

  const std::map<GridCellId, Dataset>& buckets() const { return buckets_; }

 private:
  size_t dim_;
  double cell_degrees_;
  size_t num_points_ = 0;
  std::map<GridCellId, Dataset> buckets_;
};

}  // namespace pmkm

#endif  // PMKM_DATA_GRID_H_
