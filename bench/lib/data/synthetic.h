// Synthetic inputs the experiments, examples and tests draw beyond the
// MISR-like cells of data/generator.h: uniform noise, well-separated
// clusters with known centers, and a swath cut to a minimum point count.

#ifndef PMKM_BENCH_LIB_DATA_SYNTHETIC_H_
#define PMKM_BENCH_LIB_DATA_SYNTHETIC_H_

#include <vector>

#include "common/rng.h"
#include "data/dataset.h"
#include "data/misr.h"

namespace pmkm {

/// Uniform noise over a box.
Dataset GenerateUniform(size_t n, size_t dim, double lo, double hi,
                        Rng* rng);

/// Well-separated spherical clusters with known ground truth, for
/// correctness tests (returns the true centers via `out_centers`).
Dataset GenerateSeparatedClusters(size_t n, size_t dim, size_t k,
                                  double separation, double stddev,
                                  Rng* rng,
                                  std::vector<std::vector<double>>*
                                      out_centers = nullptr);

/// Emits whole orbits of `sim` until at least `min_points` footprints are
/// produced.
Dataset SimulateSwathPoints(MisrSwathSimulator* sim, size_t min_points);

}  // namespace pmkm

#endif  // PMKM_BENCH_LIB_DATA_SYNTHETIC_H_
