#include "data/generator.h"
#include "data/synthetic.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

namespace pmkm {
namespace {

TEST(GaussianMixtureTest, CreateValidates) {
  EXPECT_TRUE(
      GaussianMixtureGenerator::Create({}).status().IsInvalidArgument());

  GaussianComponent bad_weight{{0.0}, {1.0}, 0.0};
  EXPECT_TRUE(GaussianMixtureGenerator::Create({bad_weight})
                  .status()
                  .IsInvalidArgument());

  GaussianComponent a{{0.0, 0.0}, {1.0, 1.0}, 1.0};
  GaussianComponent mismatched{{0.0}, {1.0}, 1.0};
  EXPECT_TRUE(GaussianMixtureGenerator::Create({a, mismatched})
                  .status()
                  .IsInvalidArgument());

  GaussianComponent neg_std{{0.0, 0.0}, {1.0, -1.0}, 1.0};
  EXPECT_TRUE(GaussianMixtureGenerator::Create({neg_std})
                  .status()
                  .IsInvalidArgument());
}

// One non-finite field in the second component: Create names it.
void ExpectRejectsComponent1(const GaussianComponent& bad,
                             const std::string& field) {
  const GaussianComponent good{{0.0, 0.0}, {1.0, 1.0}, 1.0};
  const Status status = GaussianMixtureGenerator::Create({good, bad}).status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
  EXPECT_NE(status.message().find("component 1"), std::string::npos)
      << status;
  EXPECT_NE(status.message().find(field), std::string::npos) << status;
}

constexpr double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity()};

TEST(GaussianMixtureTest, CreateRejectsNonFiniteMean) {
  for (double v : kNonFinite) {
    ExpectRejectsComponent1({{1.0, v}, {1.0, 1.0}, 1.0}, "mean");
  }
}

TEST(GaussianMixtureTest, CreateRejectsNonFiniteStddev) {
  for (double v : kNonFinite) {
    ExpectRejectsComponent1({{1.0, 1.0}, {v, 1.0}, 1.0}, "stddev");
  }
}

TEST(GaussianMixtureTest, CreateRejectsNonFiniteWeight) {
  for (double v : kNonFinite) {
    ExpectRejectsComponent1({{1.0, 1.0}, {1.0, 1.0}, v}, "weight");
  }
  // Finite weights whose sum overflows would leave NaN mixing weights.
  const GaussianComponent huge{{0.0}, {1.0}, 1e308};
  EXPECT_TRUE(GaussianMixtureGenerator::Create({huge, huge})
                  .status()
                  .IsInvalidArgument());
}

TEST(GaussianMixtureTest, SingleComponentMoments) {
  GaussianComponent c{{5.0, -3.0}, {2.0, 0.5}, 1.0};
  auto gen = GaussianMixtureGenerator::Create({c});
  ASSERT_TRUE(gen.ok());
  Rng rng(1);
  const Dataset d = gen->Sample(50000, &rng);
  ASSERT_EQ(d.size(), 50000u);
  const auto mean = d.Mean();
  EXPECT_NEAR(mean[0], 5.0, 0.05);
  EXPECT_NEAR(mean[1], -3.0, 0.02);
  // Sample stddev of coordinate 0.
  double var = 0.0;
  for (size_t i = 0; i < d.size(); ++i) {
    var += (d(i, 0) - mean[0]) * (d(i, 0) - mean[0]);
  }
  var /= static_cast<double>(d.size());
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(GaussianMixtureTest, MixingWeightsRespected) {
  GaussianComponent a{{0.0}, {0.01}, 3.0};
  GaussianComponent b{{100.0}, {0.01}, 1.0};
  auto gen = GaussianMixtureGenerator::Create({a, b});
  ASSERT_TRUE(gen.ok());
  Rng rng(2);
  const Dataset d = gen->Sample(20000, &rng);
  size_t near_zero = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    if (d(i, 0) < 50.0) ++near_zero;
  }
  EXPECT_NEAR(static_cast<double>(near_zero) / d.size(), 0.75, 0.02);
}

TEST(GaussianMixtureTest, DeterministicGivenSeed) {
  GaussianComponent c{{0.0}, {1.0}, 1.0};
  auto gen = GaussianMixtureGenerator::Create({c});
  ASSERT_TRUE(gen.ok());
  Rng r1(9), r2(9);
  EXPECT_EQ(gen->Sample(100, &r1), gen->Sample(100, &r2));
}

TEST(MisrLikeCellTest, SpecShapesRespected) {
  Rng rng(3);
  MisrCellSpec spec;
  spec.dim = 6;
  spec.num_components = 8;
  const auto gen = MakeMisrLikeCell(spec, &rng);
  EXPECT_EQ(gen.dim(), 6u);
  EXPECT_EQ(gen.components().size(), 8u);
  // Zipf-ish weights: first component heaviest.
  EXPECT_GT(gen.components()[0].weight, gen.components()[7].weight);
}

TEST(MisrLikeCellTest, AttributesAreCorrelated) {
  Rng rng(4);
  MisrCellSpec spec;
  spec.correlation = 0.9;
  const Dataset d = GenerateMisrLikeCell(20000, &rng, spec);
  ASSERT_EQ(d.dim(), 6u);
  // Pearson correlation between attributes 0 and 1 across the mixture
  // should be clearly positive thanks to the shared latent factor.
  const auto mean = d.Mean();
  double c01 = 0.0, v0 = 0.0, v1 = 0.0;
  for (size_t i = 0; i < d.size(); ++i) {
    const double a = d(i, 0) - mean[0];
    const double b = d(i, 1) - mean[1];
    c01 += a * b;
    v0 += a * a;
    v1 += b * b;
  }
  const double corr = c01 / std::sqrt(v0 * v1);
  EXPECT_GT(corr, 0.5);
}

TEST(MisrLikeCellTest, RequestedSize) {
  Rng rng(5);
  EXPECT_EQ(GenerateMisrLikeCell(250, &rng).size(), 250u);
  EXPECT_EQ(GenerateMisrLikeCell(0, &rng).size(), 0u);
}

TEST(GenerateUniformTest, Bounds) {
  Rng rng(6);
  const Dataset d = GenerateUniform(5000, 3, -2.0, 7.0, &rng);
  for (size_t i = 0; i < d.size(); ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_GE(d(i, j), -2.0);
      EXPECT_LT(d(i, j), 7.0);
    }
  }
}

TEST(GenerateSeparatedClustersTest, CentersReturnedAndSeparated) {
  Rng rng(7);
  std::vector<std::vector<double>> centers;
  const Dataset d =
      GenerateSeparatedClusters(1000, 4, 5, 50.0, 0.5, &rng, &centers);
  EXPECT_EQ(d.size(), 1000u);
  ASSERT_EQ(centers.size(), 5u);
  for (size_t i = 0; i < centers.size(); ++i) {
    for (size_t j = i + 1; j < centers.size(); ++j) {
      double dist_sq = 0.0;
      for (size_t dd = 0; dd < 4; ++dd) {
        const double diff = centers[i][dd] - centers[j][dd];
        dist_sq += diff * diff;
      }
      EXPECT_GE(std::sqrt(dist_sq), 50.0 * 0.9);
    }
  }
}

}  // namespace
}  // namespace pmkm
