#include "data/slicing.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace pmkm {

void ShufflePoints(Dataset* data, Rng* rng) {
  const size_t n = data->size();
  if (n < 2) return;
  for (size_t i = n - 1; i > 0; --i) {
    const size_t j = rng->UniformInt(i + 1);
    if (i == j) continue;
    std::span<double> a = data->MutableRow(i);
    std::swap_ranges(a.begin(), a.end(), data->MutableRow(j).begin());
  }
}

Dataset SlicePoints(const Dataset& data, size_t begin, size_t end) {
  PMKM_CHECK(begin <= end && end <= data.size());
  Dataset out(data.dim());
  out.Reshape(data.dim(), end - begin);
  std::copy(data.data() + begin * data.dim(), data.data() + end * data.dim(),
            out.mutable_data());
  return out;
}

std::vector<Dataset> SplitRandom(const Dataset& data, size_t num_parts,
                                 Rng* rng) {
  PMKM_CHECK(num_parts >= 1);
  std::vector<size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng->UniformInt(i)]);
  }
  std::vector<Dataset> parts;
  parts.reserve(num_parts);
  const size_t n = data.size();
  const size_t base = n / num_parts;
  const size_t extra = n % num_parts;
  size_t pos = 0;
  for (size_t p = 0; p < num_parts; ++p) {
    const size_t take = base + (p < extra ? 1 : 0);
    Dataset part(data.dim());
    part.Reserve(take);
    for (size_t i = 0; i < take; ++i) {
      part.Append(data.Row(order[pos++]));
    }
    parts.push_back(std::move(part));
  }
  return parts;
}

std::vector<Dataset> SplitContiguous(const Dataset& data, size_t num_parts) {
  PMKM_CHECK(num_parts >= 1);
  std::vector<Dataset> parts;
  parts.reserve(num_parts);
  const size_t n = data.size();
  const size_t base = n / num_parts;
  const size_t extra = n % num_parts;
  size_t pos = 0;
  for (size_t p = 0; p < num_parts; ++p) {
    const size_t take = base + (p < extra ? 1 : 0);
    parts.push_back(SlicePoints(data, pos, pos + take));
    pos += take;
  }
  return parts;
}

Result<std::vector<Dataset>> SplitSpatialGrid(const Dataset& cell,
                                              size_t grid_side,
                                              size_t x_dim, size_t y_dim) {
  if (grid_side == 0) {
    return Status::InvalidArgument("grid_side must be >= 1");
  }
  if (x_dim >= cell.dim() || y_dim >= cell.dim() || x_dim == y_dim) {
    return Status::InvalidArgument("invalid spatial dimensions");
  }
  if (cell.empty()) return std::vector<Dataset>{};

  double min_x = cell(0, x_dim), max_x = min_x;
  double min_y = cell(0, y_dim), max_y = min_y;
  for (size_t i = 1; i < cell.size(); ++i) {
    min_x = std::min(min_x, cell(i, x_dim));
    max_x = std::max(max_x, cell(i, x_dim));
    min_y = std::min(min_y, cell(i, y_dim));
    max_y = std::max(max_y, cell(i, y_dim));
  }
  const double span_x = max_x - min_x;
  const double span_y = max_y - min_y;

  auto bucket_of = [&](double v, double lo, double span) -> size_t {
    if (span <= 0.0) return 0;  // degenerate axis: single column/row
    const double u = (v - lo) / span;  // in [0, 1]
    const size_t b = static_cast<size_t>(u * static_cast<double>(grid_side));
    return std::min(b, grid_side - 1);
  };

  std::vector<Dataset> parts(grid_side * grid_side,
                             Dataset(cell.dim()));
  for (size_t i = 0; i < cell.size(); ++i) {
    const size_t bx = bucket_of(cell(i, x_dim), min_x, span_x);
    const size_t by = bucket_of(cell(i, y_dim), min_y, span_y);
    parts[by * grid_side + bx].Append(cell.Row(i));
  }
  std::erase_if(parts, [](const Dataset& d) { return d.empty(); });
  return parts;
}

Result<std::vector<Dataset>> SplitStripes(const Dataset& cell,
                                          size_t num_parts,
                                          size_t sort_dim) {
  if (num_parts == 0) {
    return Status::InvalidArgument("num_parts must be >= 1");
  }
  if (sort_dim >= cell.dim()) {
    return Status::InvalidArgument("sort_dim out of range");
  }
  std::vector<size_t> order(cell.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return cell(a, sort_dim) < cell(b, sort_dim);
  });

  std::vector<Dataset> parts;
  parts.reserve(num_parts);
  const size_t n = cell.size();
  const size_t base = n / num_parts;
  const size_t extra = n % num_parts;
  size_t pos = 0;
  for (size_t p = 0; p < num_parts; ++p) {
    const size_t take = base + (p < extra ? 1 : 0);
    Dataset part(cell.dim());
    part.Reserve(take);
    for (size_t i = 0; i < take; ++i) part.Append(cell.Row(order[pos++]));
    parts.push_back(std::move(part));
  }
  std::erase_if(parts, [](const Dataset& d) { return d.empty(); });
  return parts;
}

}  // namespace pmkm
