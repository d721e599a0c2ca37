#include "data/grid.h"

#include <cmath>

namespace pmkm {

std::string GridCellId::ToString() const {
  return "cell_" + std::to_string(lat_index) + "_" +
         std::to_string(lon_index);
}

GridIndex::GridIndex(size_t dim, double cell_degrees)
    : dim_(dim), cell_degrees_(cell_degrees) {
  PMKM_CHECK(dim >= 2);
  PMKM_CHECK(cell_degrees > 0.0);
}

GridCellId GridIndex::CellOf(double lat_deg, double lon_deg) const {
  // Wrap longitude into [-180, 180).
  double lon = std::fmod(lon_deg + 180.0, 360.0);
  if (lon < 0) lon += 360.0;
  lon -= 180.0;
  // Clamp latitude so the pole falls into the last row.
  double lat = lat_deg;
  if (lat >= 90.0) lat = std::nextafter(90.0, 0.0);
  if (lat < -90.0) lat = -90.0;
  return GridCellId{
      static_cast<int32_t>(std::floor(lat / cell_degrees_)),
      static_cast<int32_t>(std::floor(lon / cell_degrees_)),
  };
}

Status GridIndex::Add(std::span<const double> point) {
  if (point.size() != dim_) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  if (!std::isfinite(point[0]) || !std::isfinite(point[1])) {
    return Status::InvalidArgument("non-finite lat/lon coordinate");
  }
  const GridCellId id = CellOf(point[0], point[1]);
  auto [it, inserted] = buckets_.try_emplace(id, Dataset(dim_));
  it->second.Append(point);
  ++num_points_;
  return Status::OK();
}

Status GridIndex::AddAll(const Dataset& data) {
  if (data.dim() != dim_) {
    return Status::InvalidArgument("dataset dimensionality mismatch");
  }
  for (size_t i = 0; i < data.size(); ++i) {
    PMKM_RETURN_NOT_OK(Add(data.Row(i)));
  }
  return Status::OK();
}

}  // namespace pmkm
