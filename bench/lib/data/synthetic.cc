#include "data/synthetic.h"

#include "data/generator.h"

namespace pmkm {

Dataset GenerateUniform(size_t n, size_t dim, double lo, double hi,
                        Rng* rng) {
  PMKM_CHECK(dim >= 1);
  Dataset out(dim);
  out.Reserve(n);
  std::vector<double> point(dim);
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dim; ++d) point[d] = rng->Uniform(lo, hi);
    out.Append(point);
  }
  return out;
}

Dataset GenerateSeparatedClusters(
    size_t n, size_t dim, size_t k, double separation, double stddev,
    Rng* rng, std::vector<std::vector<double>>* out_centers) {
  PMKM_CHECK(dim >= 1 && k >= 1);
  std::vector<GaussianComponent> components;
  std::vector<std::vector<double>> centers;
  components.reserve(k);
  for (size_t c = 0; c < k; ++c) {
    GaussianComponent comp;
    comp.mean.resize(dim);
    // Centers on a diagonal lattice: guaranteed pairwise distance >=
    // separation in L2 because they differ by `separation` in coordinate 0.
    for (size_t d = 0; d < dim; ++d) {
      comp.mean[d] = static_cast<double>(c) * separation +
                     ((d == c % dim) ? separation * 0.25 : 0.0);
    }
    comp.stddev.assign(dim, stddev);
    comp.weight = 1.0;
    centers.push_back(comp.mean);
    components.push_back(std::move(comp));
  }
  auto gen = GaussianMixtureGenerator::Create(std::move(components));
  PMKM_CHECK(gen.ok()) << gen.status();
  if (out_centers != nullptr) *out_centers = std::move(centers);
  return gen->Sample(n, rng);
}

Dataset SimulateSwathPoints(MisrSwathSimulator* sim, size_t min_points) {
  Dataset out(sim->dim());
  while (out.size() < min_points) {
    out.AppendAll(sim->SimulateOrbits(1));
  }
  return out;
}

}  // namespace pmkm
