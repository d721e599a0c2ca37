#include "data/misr.h"

#include <cmath>

namespace pmkm {
namespace {

constexpr double kPi = 3.14159265358979323846;

// Integer hash (splitmix64 finalizer) for deterministic region parameters.
uint64_t HashRegion(int64_t a, int64_t b, uint64_t seed) {
  uint64_t z = seed ^ (static_cast<uint64_t>(a) * 0x9e3779b97f4a7c15ULL) ^
               (static_cast<uint64_t>(b) * 0xbf58476d1ce4e5b9ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double HashToUnit(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

MisrSwathSimulator::MisrSwathSimulator(const MisrSimConfig& config)
    : config_(config), rng_(config.seed) {
  PMKM_CHECK(config_.num_attributes >= 1);
  PMKM_CHECK(config_.footprints_per_scan >= 1);
  PMKM_CHECK(config_.along_track_step_deg > 0.0);
}

MisrSwathSimulator::Scene MisrSwathSimulator::SceneFor(double lat,
                                                       double lon) const {
  const auto g = static_cast<int64_t>(config_.scene_grid_degrees);
  const int64_t a = static_cast<int64_t>(std::floor(lat)) / g;
  const int64_t b = static_cast<int64_t>(std::floor(lon)) / g;
  const uint64_t h = HashRegion(a, b, config_.seed);
  Scene s;
  // Brightness falls off toward the poles (insolation), modulated per
  // region; amplitudes and mode counts vary regionally.
  const double lat_factor = std::cos(lat * kPi / 180.0);
  s.base = 20.0 + 60.0 * lat_factor + 20.0 * HashToUnit(h);
  s.amplitude = 5.0 + 25.0 * HashToUnit(h * 0x9e3779b97f4a7c15ULL + 1);
  s.num_modes = 2 + static_cast<int>(HashToUnit(h + 7) * 6.0);
  return s;
}

void MisrSwathSimulator::EmitAttributes(double lat, double lon,
                                        double* out) {
  const Scene scene = SceneFor(lat, lon);
  // Pick a surface type (mode) for this footprint; modes are offsets from
  // the regional base, shared across attributes (correlated channels).
  const int mode = static_cast<int>(rng_.UniformInt(
      static_cast<uint64_t>(scene.num_modes)));
  const double mode_offset =
      scene.amplitude * (static_cast<double>(mode) /
                             static_cast<double>(scene.num_modes) -
                         0.5) *
      2.0;
  const double brightness = scene.base + mode_offset;
  for (size_t d = 0; d < config_.num_attributes; ++d) {
    // View-angle dependence: later channels see slightly dimmer radiance
    // (path length), plus independent sensor noise.
    const double angle_gain = 1.0 - 0.04 * static_cast<double>(d);
    out[d] = brightness * angle_gain +
             rng_.Normal(0.0, config_.noise_stddev);
  }
}

Dataset MisrSwathSimulator::SimulateOrbits(size_t num_orbits) {
  Dataset out(dim());
  std::vector<double> point(dim());
  const double incl = config_.inclination_deg * kPi / 180.0;
  for (size_t orbit = 0; orbit < num_orbits; ++orbit) {
    // One orbit: the sub-satellite latitude sweeps a full sine period while
    // longitude advances with earth rotation folded in.
    for (double t = 0.0; t < 360.0; t += config_.along_track_step_deg) {
      const double phase = t * kPi / 180.0;
      const double max_lat = 180.0 - config_.inclination_deg;  // ~81.7°
      const double lat = (90.0 - max_lat < 90.0 ? (90.0 - (90.0 - max_lat))
                                                : 90.0) *
                         std::sin(phase);
      // Ground track longitude: node longitude + along-track component +
      // earth rotation (360° per ~14.5 orbits).
      const double lon_track = orbit_phase_deg_ +
                               std::atan2(std::cos(incl) * std::sin(phase),
                                          std::cos(phase)) *
                                   180.0 / kPi -
                               t * (360.0 / 14.5) / 360.0;
      for (size_t f = 0; f < config_.footprints_per_scan; ++f) {
        const double cross =
            (static_cast<double>(f) /
                 static_cast<double>(config_.footprints_per_scan) -
             0.5) *
            config_.swath_width_deg;
        double lon = std::fmod(lon_track + cross + 540.0, 360.0) - 180.0;
        double flat = lat + rng_.Uniform(-0.05, 0.05);
        if (flat > 89.999) flat = 89.999;
        if (flat < -90.0) flat = -90.0;
        point[0] = flat;
        point[1] = lon;
        EmitAttributes(flat, lon, point.data() + 2);
        out.Append(point);
      }
    }
    orbit_phase_deg_ -= config_.node_regression_deg;
  }
  return out;
}

Result<GridIndex> MisrSwathSimulator::SimulateToGrid(size_t num_orbits,
                                                     double cell_degrees) {
  GridIndex index(dim(), cell_degrees);
  const Dataset points = SimulateOrbits(num_orbits);
  PMKM_RETURN_NOT_OK(index.AddAll(points));
  return index;
}

}  // namespace pmkm
