// MISR swath simulator.
//
// Substitution for the proprietary MISR L2 product (DESIGN.md §5): the real
// instrument records stripes of the rotating earth (paper Fig. 1), so the
// points of one grid cell are scattered across many files/orbits and arrive
// in essentially random order. This simulator reproduces that acquisition
// geometry: a sun-synchronous-like ground track advances in time while the
// earth rotates underneath, and each footprint emits a 6-attribute
// radiance-like vector drawn from a smoothly varying regional mixture.

#ifndef PMKM_DATA_MISR_H_
#define PMKM_DATA_MISR_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"
#include "data/grid.h"

namespace pmkm {

/// Orbit/instrument parameters. Defaults are scaled-down but geometrically
/// faithful: ~98.3° inclination polar orbit, ~360 km swath (MISR's width),
/// 14.5 orbits/day with westward node regression covering the globe over a
/// repeat cycle.
struct MisrSimConfig {
  size_t num_attributes = 6;      // radiance channels per footprint
  double inclination_deg = 98.3;  // orbit inclination
  double swath_width_deg = 3.3;   // swath width in longitude-equivalent deg
  size_t footprints_per_scan = 8; // cross-track samples per along-track step
  double along_track_step_deg = 0.25;  // latitude advance per scan line
  double node_regression_deg = 24.8;   // westward shift per orbit
  size_t scene_grid_degrees = 30;      // size of a climate "region"
  double noise_stddev = 1.5;           // sensor noise
  uint64_t seed = 42;
};

/// Simulated footprint stream. Each point is
/// [lat, lon, a0..a(num_attributes-1)], so dim = 2 + num_attributes.
class MisrSwathSimulator {
 public:
  explicit MisrSwathSimulator(const MisrSimConfig& config = {});

  size_t dim() const { return 2 + config_.num_attributes; }
  const MisrSimConfig& config() const { return config_; }

  /// Emits the footprints of `num_orbits` consecutive orbits.
  Dataset SimulateOrbits(size_t num_orbits);

  /// Convenience: simulate `num_orbits` orbits and bin the footprints into
  /// a grid index of the given cell size.
  Result<GridIndex> SimulateToGrid(size_t num_orbits,
                                   double cell_degrees = 1.0);

 private:
  /// Radiance vector for a footprint at (lat, lon): a regional multi-modal
  /// scene signature plus sensor noise.
  void EmitAttributes(double lat, double lon, double* out);

  /// Deterministic per-region scene parameters (hashed from region id).
  struct Scene {
    double base;        // regional mean brightness
    double amplitude;   // modal spread
    int num_modes;      // surface types in the region
  };
  Scene SceneFor(double lat, double lon) const;

  MisrSimConfig config_;
  Rng rng_;
  double orbit_phase_deg_ = 0.0;  // ascending-node longitude
};

}  // namespace pmkm

#endif  // PMKM_DATA_MISR_H_
