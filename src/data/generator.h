// Synthetic workload generators.
//
// The paper's evaluation data was itself synthetic: "We used the R
// statistical package to recreate the files with the same distribution"
// (§5.1). We reproduce that setup with a Gaussian-mixture generator whose
// per-cell specs mimic MISR radiance structure: six correlated attributes,
// cluster counts and weights drawn with a heavy tail, anisotropic spreads.

#ifndef PMKM_DATA_GENERATOR_H_
#define PMKM_DATA_GENERATOR_H_

#include <vector>

#include "common/rng.h"
#include "data/dataset.h"

namespace pmkm {

/// One mixture component: an axis-aligned Gaussian with mixing weight.
struct GaussianComponent {
  std::vector<double> mean;
  std::vector<double> stddev;  // per-coordinate; same size as mean
  double weight = 1.0;         // relative (normalized internally)
};

/// Samples from a finite mixture of axis-aligned Gaussians.
class GaussianMixtureGenerator {
 public:
  /// Components must be non-empty, share one dimensionality and have
  /// positive weights and non-negative stddevs.
  static Result<GaussianMixtureGenerator> Create(
      std::vector<GaussianComponent> components);

  size_t dim() const { return dim_; }
  const std::vector<GaussianComponent>& components() const {
    return components_;
  }

  /// Draws n i.i.d. points.
  Dataset Sample(size_t n, Rng* rng) const;

 private:
  GaussianMixtureGenerator() = default;
  size_t dim_ = 0;
  std::vector<GaussianComponent> components_;
  std::vector<double> cumulative_;  // CDF over components
};

/// Parameters for the MISR-like cell distribution used throughout the
/// experiments (paper §5.1: D = 6 radiance attributes).
struct MisrCellSpec {
  size_t dim = 6;
  size_t num_components = 12;  // latent scene types per cell
  double value_range = 100.0;  // radiance-like dynamic range
  double min_stddev = 0.5;
  double max_stddev = 6.0;
  double correlation = 0.7;    // strength of the shared latent factor
};

/// Builds a random mixture with correlated attribute means (one latent
/// brightness factor plus per-attribute offsets) and Zipf-ish component
/// weights, approximating a MISR cell's multi-modal radiance distribution.
GaussianMixtureGenerator MakeMisrLikeCell(const MisrCellSpec& spec,
                                          Rng* rng);

/// Convenience: one N-point MISR-like cell dataset. A fresh mixture spec is
/// derived from `rng`, then sampled. This is the workload behind Table 2 /
/// Figures 6-8.
Dataset GenerateMisrLikeCell(size_t n, Rng* rng,
                             const MisrCellSpec& spec = {});

}  // namespace pmkm

#endif  // PMKM_DATA_GENERATOR_H_
