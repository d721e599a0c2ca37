#include "data/dataset.h"

namespace pmkm {

Result<Dataset> Dataset::FromFlat(size_t dim, std::vector<double> values) {
  if (dim == 0) {
    return Status::InvalidArgument("dataset dimensionality must be >= 1");
  }
  if (values.size() % dim != 0) {
    return Status::InvalidArgument(
        "flat value count is not a multiple of the dimensionality");
  }
  Dataset out(dim);
  out.values_ = std::move(values);
  return out;
}

std::vector<double> Dataset::Mean() const {
  PMKM_CHECK(!empty());
  std::vector<double> mean(dim_, 0.0);
  const size_t n = size();
  for (size_t i = 0; i < n; ++i) {
    const double* row = values_.data() + i * dim_;
    for (size_t d = 0; d < dim_; ++d) mean[d] += row[d];
  }
  for (double& m : mean) m /= static_cast<double>(n);
  return mean;
}

}  // namespace pmkm
