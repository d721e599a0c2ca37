#include "data/generator.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace pmkm {

Result<GaussianMixtureGenerator> GaussianMixtureGenerator::Create(
    std::vector<GaussianComponent> components) {
  if (components.empty()) {
    return Status::InvalidArgument("mixture needs at least one component");
  }
  const size_t dim = components[0].mean.size();
  if (dim == 0) {
    return Status::InvalidArgument("component dimensionality must be >= 1");
  }
  double total = 0.0;
  for (size_t i = 0; i < components.size(); ++i) {
    const GaussianComponent& c = components[i];
    const std::string name = "component " + std::to_string(i);
    if (c.mean.size() != dim || c.stddev.size() != dim) {
      return Status::InvalidArgument(
          "all components must share one dimensionality");
    }
    if (!(c.weight > 0.0 && std::isfinite(c.weight))) {
      return Status::InvalidArgument(name +
                                     ": weight must be finite and positive");
    }
    for (double m : c.mean) {
      if (!std::isfinite(m)) {
        return Status::InvalidArgument(name + ": mean must be finite");
      }
    }
    for (double s : c.stddev) {
      if (!(s >= 0.0 && std::isfinite(s))) {
        return Status::InvalidArgument(
            name + ": stddev must be finite and non-negative");
      }
    }
    total += c.weight;
  }
  if (!std::isfinite(total)) {
    return Status::InvalidArgument("component weights sum to infinity");
  }
  GaussianMixtureGenerator gen;
  gen.dim_ = dim;
  gen.components_ = std::move(components);
  gen.cumulative_.reserve(gen.components_.size());
  double acc = 0.0;
  for (const auto& c : gen.components_) {
    acc += c.weight / total;
    gen.cumulative_.push_back(acc);
  }
  gen.cumulative_.back() = 1.0;  // guard against FP drift
  return gen;
}

Dataset GaussianMixtureGenerator::Sample(size_t n, Rng* rng) const {
  Dataset out(dim_);
  out.Reserve(n);
  std::vector<double> point(dim_);
  for (size_t i = 0; i < n; ++i) {
    const double u = rng->UniformDouble();
    const size_t c = static_cast<size_t>(
        std::lower_bound(cumulative_.begin(), cumulative_.end(), u) -
        cumulative_.begin());
    const auto& comp = components_[std::min(c, components_.size() - 1)];
    for (size_t d = 0; d < dim_; ++d) {
      point[d] = rng->Normal(comp.mean[d], comp.stddev[d]);
    }
    out.Append(point);
  }
  return out;
}

GaussianMixtureGenerator MakeMisrLikeCell(const MisrCellSpec& spec,
                                          Rng* rng) {
  PMKM_CHECK(spec.dim >= 1);
  PMKM_CHECK(spec.num_components >= 1);
  std::vector<GaussianComponent> components;
  components.reserve(spec.num_components);
  for (size_t c = 0; c < spec.num_components; ++c) {
    GaussianComponent comp;
    comp.mean.resize(spec.dim);
    comp.stddev.resize(spec.dim);
    // Shared latent factor: a bright scene is bright at every view angle,
    // which gives the strong cross-attribute correlation MISR radiances
    // show. Each attribute adds an independent offset scaled by
    // (1 - correlation).
    const double latent = rng->Uniform(0.0, spec.value_range);
    for (size_t d = 0; d < spec.dim; ++d) {
      const double offset = rng->Uniform(0.0, spec.value_range);
      comp.mean[d] =
          spec.correlation * latent + (1.0 - spec.correlation) * offset;
      comp.stddev[d] = rng->Uniform(spec.min_stddev, spec.max_stddev);
    }
    // Zipf-ish weights: a few dominant scene types plus a long tail.
    comp.weight = 1.0 / static_cast<double>(c + 1);
    components.push_back(std::move(comp));
  }
  auto result = GaussianMixtureGenerator::Create(std::move(components));
  PMKM_CHECK(result.ok()) << result.status();
  return std::move(result).value();
}

Dataset GenerateMisrLikeCell(size_t n, Rng* rng, const MisrCellSpec& spec) {
  const GaussianMixtureGenerator gen = MakeMisrLikeCell(spec, rng);
  return gen.Sample(n, rng);
}

}  // namespace pmkm
