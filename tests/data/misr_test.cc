#include "data/misr.h"
#include "data/synthetic.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace pmkm {
namespace {

TEST(MisrSwathTest, DimIncludesLatLon) {
  MisrSimConfig config;
  config.num_attributes = 6;
  MisrSwathSimulator sim(config);
  EXPECT_EQ(sim.dim(), 8u);
}

TEST(MisrSwathTest, CoordinatesAreValid) {
  MisrSwathSimulator sim;
  const Dataset d = sim.SimulateOrbits(1);
  ASSERT_GT(d.size(), 0u);
  for (size_t i = 0; i < d.size(); ++i) {
    EXPECT_GE(d(i, 0), -90.0);
    EXPECT_LE(d(i, 0), 90.0);
    EXPECT_GE(d(i, 1), -180.0);
    EXPECT_LT(d(i, 1), 180.0);
  }
}

TEST(MisrSwathTest, DeterministicForSameSeed) {
  MisrSimConfig config;
  config.seed = 77;
  MisrSwathSimulator a(config), b(config);
  EXPECT_EQ(a.SimulateOrbits(1), b.SimulateOrbits(1));
}

TEST(MisrSwathTest, SimulatePointsMeetsMinimum) {
  MisrSwathSimulator sim;
  const Dataset d = SimulateSwathPoints(&sim, 5000);
  EXPECT_GE(d.size(), 5000u);
}

TEST(MisrSwathTest, OrbitsCoverBothHemispheres) {
  MisrSwathSimulator sim;
  const Dataset d = sim.SimulateOrbits(1);
  bool north = false, south = false;
  for (size_t i = 0; i < d.size(); ++i) {
    if (d(i, 0) > 30.0) north = true;
    if (d(i, 0) < -30.0) south = true;
  }
  EXPECT_TRUE(north);
  EXPECT_TRUE(south);
}

TEST(MisrSwathTest, NodeRegressionShiftsLongitudes) {
  // Consecutive orbits must not retrace the same longitudes: the points of
  // one grid cell arrive spread across many orbits (the paper's Fig. 1
  // acquisition pattern).
  MisrSwathSimulator sim;
  const Dataset orbit1 = sim.SimulateOrbits(1);
  const Dataset orbit2 = sim.SimulateOrbits(1);
  double mean1 = 0.0, mean2 = 0.0;
  size_t n1 = 0, n2 = 0;
  for (size_t i = 0; i < orbit1.size(); ++i) {
    if (std::abs(orbit1(i, 0)) < 10.0) {  // equatorial band
      mean1 += orbit1(i, 1);
      ++n1;
    }
  }
  for (size_t i = 0; i < orbit2.size(); ++i) {
    if (std::abs(orbit2(i, 0)) < 10.0) {
      mean2 += orbit2(i, 1);
      ++n2;
    }
  }
  ASSERT_GT(n1, 0u);
  ASSERT_GT(n2, 0u);
  EXPECT_NE(std::round(mean1 / n1), std::round(mean2 / n2));
}

TEST(MisrSwathTest, AttributesTrackLatitudeBrightness) {
  // Regional base brightness falls toward the poles; equatorial radiances
  // should exceed polar ones on average.
  MisrSwathSimulator sim;
  const Dataset d = sim.SimulateOrbits(2);
  double eq = 0.0, pole = 0.0;
  size_t neq = 0, npole = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    if (std::abs(d(i, 0)) < 15.0) {
      eq += d(i, 2);
      ++neq;
    } else if (std::abs(d(i, 0)) > 70.0) {
      pole += d(i, 2);
      ++npole;
    }
  }
  ASSERT_GT(neq, 0u);
  ASSERT_GT(npole, 0u);
  EXPECT_GT(eq / neq, pole / npole);
}

TEST(MisrSwathTest, SimulateToGridBinsEverything) {
  MisrSwathSimulator sim;
  auto grid = sim.SimulateToGrid(1);
  ASSERT_TRUE(grid.ok()) << grid.status();
  EXPECT_GT(grid->num_cells(), 100u);
  size_t total = 0;
  for (const auto& [id, bucket] : grid->buckets()) {
    total += bucket.size();
  }
  EXPECT_EQ(total, grid->num_points());
}

TEST(MisrSwathTest, MultipleOrbitsRevisitCells) {
  // After enough orbits, at least some cells contain points from more
  // than one orbit (points per cell grows superlinearly vs one orbit).
  MisrSimConfig config;
  MisrSwathSimulator sim(config);
  auto grid = sim.SimulateToGrid(15);  // ~ one day: full regression cycle
  ASSERT_TRUE(grid.ok());
  size_t max_points = 0;
  for (const auto& [id, bucket] : grid->buckets()) {
    max_points = std::max(max_points, bucket.size());
  }
  EXPECT_GT(max_points, 20u);
}

}  // namespace
}  // namespace pmkm
