// Kernel parity: every SIMD distance kernel must be bitwise-identical to
// the scalar reference — same assignments, same squared distances, same
// accumulated sums and SSE, same drift/separation — on randomized weighted
// datasets across dimensionalities, and end-to-end Fit results must not
// depend on the kernel at all. This is the contract that makes --kernel
// a pure speed knob.

#include "cluster/kernels.h"
#include "cluster/kernels/kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "cluster/distance.h"
#include "cluster/kmeans.h"
#include "cluster/lloyd.h"
#include "cluster/seeding.h"
#include "common/rng.h"
#include "data/generator.h"
#include "data/weighted.h"

namespace pmkm {
namespace {

Dataset MakePoints(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  MisrCellSpec spec;
  spec.dim = dim;
  return GenerateMisrLikeCell(n, &rng, spec);
}

WeightedDataset MakeWeighted(const Dataset& points, uint64_t seed) {
  Rng rng(seed);
  WeightedDataset out(points.dim());
  for (size_t i = 0; i < points.size(); ++i) {
    out.Append(points.Row(i), 1.0 + static_cast<double>(rng.UniformInt(9)));
  }
  return out;
}

class KernelParityTest : public ::testing::TestWithParam<size_t> {};

// The scalar kernel's full scan: AssignMasked over every point in order
// and every centroid, with the bound √second2·(1 − δ).
struct FullScan {
  std::vector<uint32_t> assign;
  std::vector<double> dist2, lower;
};

FullScan ScalarFullScan(const double* points, size_t n, size_t dim,
                        const Dataset& centroids) {
  FullScan ref{std::vector<uint32_t>(n), std::vector<double>(n),
               std::vector<double>(n)};
  GetKernel(KernelKind::kScalar)
      .AssignMasked(points, n, dim, centroids.data(), centroids.size(),
                    nullptr, nullptr, ref.assign.data(), ref.dist2.data(),
                    ref.lower.data());
  return ref;
}

TEST_P(KernelParityTest, AssignBlockBitwiseMatchesScalar) {
  const size_t dim = GetParam();
  const size_t n = 3000;
  const size_t k = 40;
  const Dataset points = MakePoints(n, dim, 11);
  const Dataset centroids = MakePoints(k, dim, 12);
  CentroidBlock block;
  block.Load(centroids);
  const FullScan ref = ScalarFullScan(points.data(), n, dim, centroids);

  for (const DistanceKernel* kernel : AvailableKernels()) {
    SCOPED_TRACE(kernel->name());
    std::vector<uint32_t> assign(n);
    std::vector<double> dist2(n), lower(n);
    kernel->AssignMasked(points.data(), n, dim, centroids.data(), k, nullptr,
                         nullptr, assign.data(), dist2.data(), lower.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(assign[i], ref.assign[i]) << "point " << i;
      ASSERT_EQ(dist2[i], ref.dist2[i]) << "point " << i;
      ASSERT_EQ(lower[i], ref.lower[i]) << "point " << i;
    }
    // AssignBlock, the shim over the same scan, agrees too.
    std::vector<uint32_t> assign2(n);
    std::vector<double> dist2b(n);
    kernel->AssignBlock(points.data(), n, dim, block, assign2.data(),
                        dist2b.data());
    EXPECT_EQ(assign2, ref.assign);
    EXPECT_EQ(dist2b, ref.dist2);
  }
}

// AccumulateBlock's inputs for one dim: n = 0 and n off every multiple of
// 4 and 8, weighted and unit weights. dist2 spans twelve decades, so a sum
// taken in any other order than ascending i would round differently.
class AccumulateInputs {
 public:
  struct Outputs {
    std::vector<double> sums, cluster_weight;
    double sse = 0.0;
  };

  static constexpr size_t kK = 17;

  explicit AccumulateInputs(size_t dim)
      : points_(MakePoints(3000, dim, 13)),
        weighted_(MakeWeighted(points_, 14)) {
    Rng rng(15);
    for (size_t i = 0; i < points_.size(); ++i) {
      assign_.push_back(static_cast<uint32_t>(rng.UniformInt(kK)));
      dist2_.push_back(rng.UniformDouble() *
                       std::pow(10.0, static_cast<double>(
                                          rng.UniformInt(12)) - 6.0));
    }
  }

  static std::vector<size_t> Sizes() {
    return {0, 1, 3, 5, 13, 250, 1003, 3000};
  }

  Outputs Run(const DistanceKernel& kernel, size_t n, bool unit) const {
    const size_t dim = points_.dim();
    const std::vector<double> ones(n, 1.0);
    Outputs out;
    out.sums.assign(kK * dim, 0.0);
    out.cluster_weight.assign(kK, 0.0);
    out.sse = kernel.AccumulateBlock(
        points_.data(), unit ? ones.data() : weighted_.weights().data(),
        dist2_.data(), n, dim, assign_.data(), out.sums.data(),
        out.cluster_weight.data());
    return out;
  }

  // The plain ascending loop the Lloyd pass summed its SSE with before
  // the sum moved into the scatter.
  double AscendingSse(size_t n, bool unit) const {
    double sse = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sse += (unit ? 1.0 : weighted_.weights()[i]) * dist2_[i];
    }
    return sse;
  }

 private:
  Dataset points_;
  WeightedDataset weighted_;
  std::vector<uint32_t> assign_;
  std::vector<double> dist2_;
};

TEST_P(KernelParityTest, AccumulateBlockBitwiseMatchesScalar) {
  const AccumulateInputs inputs(GetParam());
  for (bool unit : {false, true}) {
    for (size_t n : AccumulateInputs::Sizes()) {
      SCOPED_TRACE("n=" + std::to_string(n) + (unit ? " unit" : " weighted"));
      const auto ref = inputs.Run(GetKernel(KernelKind::kScalar), n, unit);
      if (n == 0) {
        EXPECT_EQ(std::bit_cast<uint64_t>(ref.sse), uint64_t{0});
      }
      for (const DistanceKernel* kernel : AvailableKernels()) {
        SCOPED_TRACE(kernel->name());
        const auto out = inputs.Run(*kernel, n, unit);
        EXPECT_EQ(std::bit_cast<uint64_t>(out.sse),
                  std::bit_cast<uint64_t>(ref.sse));
        EXPECT_EQ(0, std::memcmp(out.sums.data(), ref.sums.data(),
                                 out.sums.size() * sizeof(double)));
        EXPECT_EQ(0, std::memcmp(out.cluster_weight.data(),
                                 ref.cluster_weight.data(),
                                 out.cluster_weight.size() * sizeof(double)));
      }
    }
  }
}

// The returned SSE is the plain ascending loop's, bit for bit.
TEST_P(KernelParityTest, AccumulateBlockSseEqualsAscendingLoop) {
  const AccumulateInputs inputs(GetParam());
  for (bool unit : {false, true}) {
    for (size_t n : AccumulateInputs::Sizes()) {
      SCOPED_TRACE("n=" + std::to_string(n) + (unit ? " unit" : " weighted"));
      const double sse = inputs.AscendingSse(n, unit);
      for (const DistanceKernel* kernel : AvailableKernels()) {
        SCOPED_TRACE(kernel->name());
        EXPECT_EQ(std::bit_cast<uint64_t>(inputs.Run(*kernel, n, unit).sse),
                  std::bit_cast<uint64_t>(sse));
      }
    }
  }
}

// Every kernel's drift, s and rings (memcmp) equal the scalar kernel's
// for `new_c` of k rows, with rings whenever k allows them, and without.
void ExpectDriftAndSeparationParity(const Dataset& old_c,
                                    const Dataset& new_c) {
  const size_t k = new_c.size();
  const size_t dim = new_c.dim();
  const bool with_rings = k <= kBallMaxK;
  const DistanceKernel& scalar = GetKernel(KernelKind::kScalar);
  std::vector<double> ref_drift(k), ref_s(k);
  std::vector<uint64_t> ref_rings(k * kRingLevels, 0xeeee);
  scalar.CentroidDriftAndSeparation(old_c.data(), new_c.data(), k, dim,
                                    ref_drift.data(), ref_s.data(),
                                    with_rings ? ref_rings.data() : nullptr);
  for (const DistanceKernel* kernel : AvailableKernels()) {
    SCOPED_TRACE(kernel->name());
    std::vector<double> drift(k, -1.0), s(k, -1.0);
    std::vector<uint64_t> rings(k * kRingLevels, 0xeeee);
    kernel->CentroidDriftAndSeparation(old_c.data(), new_c.data(), k, dim,
                                       drift.data(), s.data(),
                                       with_rings ? rings.data() : nullptr);
    EXPECT_EQ(0, std::memcmp(drift.data(), ref_drift.data(),
                             k * sizeof(double)));
    EXPECT_EQ(0, std::memcmp(s.data(), ref_s.data(), k * sizeof(double)));
    EXPECT_EQ(0, std::memcmp(rings.data(), ref_rings.data(),
                             k * kRingLevels * sizeof(uint64_t)));
    // Without drift or rings, the same separation.
    std::vector<double> s_only(k, -1.0);
    kernel->CentroidDriftAndSeparation(nullptr, new_c.data(), k, dim, nullptr,
                                       s_only.data());
    EXPECT_EQ(0, std::memcmp(s_only.data(), ref_s.data(),
                             k * sizeof(double)));
  }
}

TEST_P(KernelParityTest, DriftAndSeparationBitwiseMatchesScalar) {
  const size_t dim = GetParam();
  {
    // The masks are the ring levels of the pair distances, nested by level.
    const size_t k = 40;
    const Dataset new_c = MakePoints(k, dim, 17);
    std::vector<double> s(k);
    std::vector<uint64_t> rings(k * kRingLevels);
    GetKernel(KernelKind::kScalar)
        .CentroidDriftAndSeparation(nullptr, new_c.data(), k, dim, nullptr,
                                    s.data(), rings.data());
    for (size_t a = 0; a < k; ++a) {
      for (size_t j = 0; j < k; ++j) {
        const double pair2 = SquaredL2(new_c.Row(a), new_c.Row(j));
        const size_t level = j == a ? 0 : RingLevel(pair2, s[a]);
        for (size_t l = 0; l < kRingLevels; ++l) {
          EXPECT_EQ(((rings[a * kRingLevels + l] >> j) & 1) != 0, l >= level)
              << "owner " << a << " column " << j << " level " << l;
        }
      }
    }
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  // Every tail of the 4-owner step, one to two mask words and beyond.
  for (size_t k : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 19u, 20u, 21u, 40u, 63u,
                   64u, 65u, 100u}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const Dataset old_c = MakePoints(k, dim, 16 + k);
    const Dataset new_c = MakePoints(k, dim, 17 + k);
    {
      SCOPED_TRACE("random");
      ExpectDriftAndSeparationParity(old_c, new_c);
    }
    // Degenerate rows, each where k has room for it: a duplicate of row
    // 0, a row of NaN, one of +inf, one of −inf, and corners of
    // {±1e200}^dim, whose squared pair distances overflow.
    std::vector<double> values = new_c.values();
    auto fill_row = [&](size_t j, auto coordinate) {
      if (j >= k) return;
      for (size_t d = 0; d < dim; ++d) values[j * dim + d] = coordinate(d);
    };
    fill_row(1, [&](size_t d) { return values[d]; });
    fill_row(2, [](size_t) { return kNan; });
    fill_row(3, [](size_t) { return kInf; });
    fill_row(4, [](size_t) { return -kInf; });
    for (size_t j = 5; j < std::min<size_t>(k, 9); ++j) {
      fill_row(j, [&](size_t d) {
        return ((j + d) & 1) != 0 ? 1e200 : -1e200;
      });
    }
    auto degenerate = Dataset::FromFlat(dim, std::move(values));
    ASSERT_TRUE(degenerate.ok()) << degenerate.status();
    SCOPED_TRACE("degenerate");
    ExpectDriftAndSeparationParity(old_c, *degenerate);
  }
}

TEST_P(KernelParityTest, WeightedLloydFitIdenticalAcrossKernels) {
  const size_t dim = GetParam();
  const Dataset points = MakePoints(2000, dim, 18);
  const WeightedDataset data = MakeWeighted(points, 19);
  Rng seed_rng(20);
  auto seeds = RandomSeeds(data, 8, &seed_rng);
  ASSERT_TRUE(seeds.ok()) << seeds.status();

  LloydConfig ref_config;
  ref_config.kernel = &GetKernel(KernelKind::kScalar);
  auto ref = RunWeightedLloyd(data, *seeds, ref_config);
  ASSERT_TRUE(ref.ok()) << ref.status();

  for (const DistanceKernel* kernel : AvailableKernels()) {
    SCOPED_TRACE(kernel->name());
    LloydConfig config = ref_config;
    config.kernel = kernel;
    auto model = RunWeightedLloyd(data, *seeds, config);
    ASSERT_TRUE(model.ok()) << model.status();
    EXPECT_EQ(model->centroids, ref->centroids);
    EXPECT_EQ(model->weights, ref->weights);
    EXPECT_EQ(model->sse, ref->sse);
    EXPECT_EQ(model->iterations, ref->iterations);
  }
}

TEST_P(KernelParityTest, HamerlyFitIdenticalAcrossKernels) {
  // The bound-pruned assignment takes skipped points' distances from
  // PruneBlock and scanned points' from AssignBlock, so its output on
  // every kernel must equal the unpruned scalar fit.
  const size_t dim = GetParam();
  const Dataset points = MakePoints(2000, dim, 22);
  const WeightedDataset data = MakeWeighted(points, 23);
  Rng seed_rng(24);
  auto seeds = RandomSeeds(data, 8, &seed_rng);
  ASSERT_TRUE(seeds.ok()) << seeds.status();

  LloydConfig ref_config;
  ref_config.accelerate = false;
  ref_config.kernel = &GetKernel(KernelKind::kScalar);
  auto ref = RunWeightedLloyd(data, *seeds, ref_config);
  ASSERT_TRUE(ref.ok()) << ref.status();

  for (const DistanceKernel* kernel : AvailableKernels()) {
    SCOPED_TRACE(kernel->name());
    LloydConfig config = ref_config;
    config.accelerate = true;
    config.kernel = kernel;
    auto model = RunWeightedLloyd(data, *seeds, config);
    ASSERT_TRUE(model.ok()) << model.status();
    EXPECT_EQ(model->centroids, ref->centroids);
    EXPECT_EQ(model->weights, ref->weights);
    EXPECT_EQ(model->sse, ref->sse);
    EXPECT_EQ(model->iterations, ref->iterations);
  }
}

// Ring masks over degenerate centroid sets: a duplicated centroid
// (s = 0: all bits at every level), an infinite and a NaN coordinate, at
// the smallest and largest k the ball serves.
TEST(RingParityTest, DegenerateCentroidsBitwiseMatchScalar) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (size_t k : {kBallMinK, kBallMaxK}) {
    for (size_t dim : {1u, 6u}) {
      SCOPED_TRACE("k=" + std::to_string(k) + " dim=" + std::to_string(dim));
      std::vector<double> values = MakePoints(k, dim, 400 + k).values();
      std::copy(values.begin(), values.begin() + dim,
                values.begin() + 5 * dim);  // centroid 5 = centroid 0
      values[7 * dim] = kInf;
      values[9 * dim] = kNan;
      auto centroids = Dataset::FromFlat(dim, std::move(values));
      ASSERT_TRUE(centroids.ok()) << centroids.status();
      const DistanceKernel& scalar = GetKernel(KernelKind::kScalar);
      std::vector<double> ref_s(k);
      std::vector<uint64_t> ref_rings(k * kRingLevels);
      scalar.CentroidDriftAndSeparation(nullptr, centroids->data(), k, dim,
                                        nullptr, ref_s.data(),
                                        ref_rings.data());
      const uint64_t all = k == 64 ? ~uint64_t{0} : (uint64_t{1} << k) - 1;
      EXPECT_EQ(ref_rings[0], all);  // s[0] = 0
      EXPECT_EQ(ref_rings[5 * kRingLevels + kRingLevels - 1], all);
      for (const DistanceKernel* kernel : AvailableKernels()) {
        SCOPED_TRACE(kernel->name());
        std::vector<double> s(k);
        std::vector<uint64_t> rings(k * kRingLevels);
        kernel->CentroidDriftAndSeparation(nullptr, centroids->data(), k,
                                           dim, nullptr, s.data(),
                                           rings.data());
        EXPECT_EQ(0, std::memcmp(s.data(), ref_s.data(), k * sizeof(double)));
        EXPECT_EQ(rings, ref_rings);
      }
    }
  }
}

// Dims 1 to 9 cover every split of the AVX2 bodies' 4-wide steps and
// scalar tails; 17 is a long row with a one-element tail.
INSTANTIATE_TEST_SUITE_P(Dims, KernelParityTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u,
                                           9u, 17u),
                         [](const auto& info) {
                           return "d" + std::to_string(info.param);
                         });

// Adversarial scan parity: every kernel's AssignBlock assign/dist2 bytes
// and AssignMasked assign/dist2/lower bytes (memcmp, so NaN payloads and
// signed zeros count) must equal the scalar full scan's — and so must the
// per-point NearestCentroidIndex scan's (assign, dist2) — over tails (n
// not a multiple of any block size), short lanes (k not a multiple of 4
// or 8), duplicate centroids across lanes and tiles, and non-finite
// points and centroids.
class AssignBlockAdversarialTest : public ::testing::Test {
 protected:
  static constexpr size_t kDim = 3;

  // Points drawn near the centroids, so duplicates are often nearest.
  static std::vector<double> NearPoints(size_t n, const Dataset& centroids,
                                        uint64_t seed) {
    const size_t dim = centroids.dim();
    Rng rng(seed);
    std::vector<double> x(n * dim);
    for (size_t i = 0; i < n; ++i) {
      const auto c = centroids.Row(rng.UniformInt(centroids.size()));
      for (size_t d = 0; d < dim; ++d) {
        x[i * dim + d] = c[d] + (rng.UniformInt(5) == 0
                                     ? 0.0
                                     : rng.UniformDouble() - 0.5);
      }
    }
    return x;
  }

  // One non-finite coordinate per point for 40 points, in every
  // coordinate position, at positions that land in every lane of a
  // 4-point block and of an 8-point step.
  static void PoisonPoints(std::vector<double>* points, size_t dim) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                               kInf, -kInf};
    for (size_t i = 0; i < 40; ++i) {
      (*points)[(6 * i + i % 4) * dim + i % dim] = specials[i % 3];
    }
  }

  static void ExpectBitwiseParity(const std::vector<double>& points,
                                  const Dataset& centroids) {
    const size_t dim = centroids.dim();
    const size_t n = points.size() / dim;
    CentroidBlock block;
    block.Load(centroids);
    const FullScan ref = ScalarFullScan(points.data(), n, dim, centroids);
    for (const DistanceKernel* kernel : AvailableKernels()) {
      SCOPED_TRACE(std::string(kernel->name()) + " AssignBlock");
      std::vector<uint32_t> assign(n, 0xdeadbeef);
      std::vector<double> dist2(n, -1.0);
      kernel->AssignBlock(points.data(), n, dim, block, assign.data(),
                          dist2.data());
      EXPECT_EQ(0, std::memcmp(assign.data(), ref.assign.data(),
                               n * sizeof(uint32_t)));
      EXPECT_EQ(0, std::memcmp(dist2.data(), ref.dist2.data(),
                               n * sizeof(double)));
    }
    // AssignMasked with no mask, through a row list (the pruned pass's
    // survivors that scan every centroid): descending, with gaps and a
    // repeated row, so its 8-point steps mix far-apart rows. Each named
    // row gets the full scan's assign, dist2 and lower; the rest stay
    // untouched.
    std::vector<uint32_t> rows;
    for (size_t i = n; i-- > 0;) {
      if (i % 3 != 1) rows.push_back(static_cast<uint32_t>(i));
    }
    rows.push_back(0);
    std::vector<uint32_t> want_assign(n, 0xdeadbeef);
    std::vector<double> want_dist2(n, -1.0), want_lower(n, -2.0);
    for (uint32_t r : rows) {
      want_assign[r] = ref.assign[r];
      want_dist2[r] = ref.dist2[r];
      want_lower[r] = ref.lower[r];
    }
    for (const DistanceKernel* kernel : AvailableKernels()) {
      SCOPED_TRACE(std::string(kernel->name()) + " AssignMasked, no mask");
      std::vector<uint32_t> assign(n, 0xdeadbeef);
      std::vector<double> dist2(n, -1.0), lower(n, -2.0);
      kernel->AssignMasked(points.data(), rows.size(), dim,
                           centroids.data(), centroids.size(), rows.data(),
                           nullptr, assign.data(), dist2.data(),
                           lower.data());
      EXPECT_EQ(0, std::memcmp(assign.data(), want_assign.data(),
                               n * sizeof(uint32_t)));
      EXPECT_EQ(0, std::memcmp(dist2.data(), want_dist2.data(),
                               n * sizeof(double)));
      EXPECT_EQ(0, std::memcmp(lower.data(), want_lower.data(),
                               n * sizeof(double)));
    }
    // Null rows: every point in order, the same bytes as the row list
    // 0..n−1 and as the scalar full scan; a null `lower` writes only
    // assign and dist2.
    std::vector<uint32_t> in_order(n);
    std::iota(in_order.begin(), in_order.end(), 0u);
    for (const DistanceKernel* kernel : AvailableKernels()) {
      SCOPED_TRACE(std::string(kernel->name()) + " AssignMasked, null rows");
      const uint32_t* const rows_args[] = {in_order.data(), nullptr};
      for (const uint32_t* rows_arg : rows_args) {
        for (bool with_lower : {true, false}) {
          std::vector<uint32_t> assign(n, 0xdeadbeef);
          std::vector<double> dist2(n, -1.0), lower(n, -2.0);
          kernel->AssignMasked(points.data(), n, dim, centroids.data(),
                               centroids.size(), rows_arg, nullptr,
                               assign.data(), dist2.data(),
                               with_lower ? lower.data() : nullptr);
          EXPECT_EQ(0, std::memcmp(assign.data(), ref.assign.data(),
                                   n * sizeof(uint32_t)));
          EXPECT_EQ(0, std::memcmp(dist2.data(), ref.dist2.data(),
                                   n * sizeof(double)));
          if (with_lower) {
            EXPECT_EQ(0, std::memcmp(lower.data(), ref.lower.data(),
                                     n * sizeof(double)));
          } else {
            EXPECT_TRUE(std::all_of(lower.begin(), lower.end(),
                                    [](double v) { return v == -2.0; }));
          }
        }
      }
    }
    // The per-point scan (Predict, online k-means, histogram encoding)
    // is one more implementation of the same query.
    SCOPED_TRACE("NearestCentroidIndex");
    for (size_t i = 0; i < n; ++i) {
      double d2 = -1.0;
      const size_t j = NearestCentroidIndex(
          {points.data() + i * dim, dim}, centroids, &d2);
      EXPECT_EQ(j, ref.assign[i]) << "point " << i;
      EXPECT_EQ(0, std::memcmp(&d2, &ref.dist2[i], sizeof(double)))
          << "point " << i;
    }
  }
};

TEST_F(AssignBlockAdversarialTest, TailsAndPaddingAcrossShapes) {
  for (size_t k : {1u, 3u, 8u, 9u, 40u, 65u}) {
    const Dataset centroids = MakePoints(k, kDim, 50 + k);
    for (size_t n : {1u, 2u, 3u, 5u, 255u, 257u}) {
      SCOPED_TRACE("k=" + std::to_string(k) + " n=" + std::to_string(n));
      ExpectBitwiseParity(NearPoints(n, centroids, 60 + n), centroids);
    }
  }
}

TEST_F(AssignBlockAdversarialTest, DuplicateCentroidsTieToLowerIndex) {
  for (size_t k : {9u, 40u, 65u}) {
    // Copies of a centroid in another lane of the same 4-lane vector, in
    // the other vector of its 8-block, in a later 8-block at a lower lane
    // (3 -> 8), in the last block, and (k=65) in the next scratch tile.
    std::vector<double> values = MakePoints(k, kDim, 70 + k).values();
    auto copy_row = [&](size_t from, size_t to) {
      std::copy(values.begin() + from * kDim,
                values.begin() + (from + 1) * kDim,
                values.begin() + to * kDim);
    };
    copy_row(1, 2);
    copy_row(1, 7);
    copy_row(3, 8);
    copy_row(3, k - 1);
    copy_row(k - 2, 4);
    auto dup = Dataset::FromFlat(kDim, std::move(values));
    ASSERT_TRUE(dup.ok()) << dup.status();
    const Dataset& centroids = *dup;
    SCOPED_TRACE("k=" + std::to_string(k));

    // Points exactly on duplicated centroids, plus nearby points.
    const std::vector<size_t> on = {1, 3, 4, 7, k - 1};
    std::vector<double> points = NearPoints(255, centroids, 80 + k);
    for (size_t j : on) {
      const auto c = centroids.Row(j);
      points.insert(points.end(), c.begin(), c.end());
    }
    ExpectBitwiseParity(points, centroids);

    const size_t n = points.size() / kDim;
    for (const DistanceKernel* kernel : AvailableKernels()) {
      SCOPED_TRACE(kernel->name());
      std::vector<uint32_t> assign(n);
      std::vector<double> dist2(n), lower(n);
      kernel->AssignMasked(points.data(), n, kDim, centroids.data(), k,
                           nullptr, nullptr, assign.data(), dist2.data(),
                           lower.data());
      // A point on a duplicated centroid goes to the lowest index of its
      // duplicate set at distance 0, with a second-best of 0.
      for (size_t t = 0; t < on.size(); ++t) {
        const size_t i = n - on.size() + t;
        size_t lowest = 0;
        while (!std::equal(centroids.Row(lowest).begin(),
                           centroids.Row(lowest).end(),
                           centroids.Row(on[t]).begin())) {
          ++lowest;
        }
        EXPECT_EQ(assign[i], lowest) << "on centroid " << on[t];
        EXPECT_EQ(dist2[i], 0.0);
        EXPECT_EQ(lower[i], 0.0);
      }
    }
  }
}

TEST_F(AssignBlockAdversarialTest, NonFinitePointsAndCentroids) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (size_t k : {1u, 3u, 9u, 40u, 65u}) {
    const Dataset centroids = MakePoints(k, kDim, 90 + k);
    std::vector<double> points = NearPoints(257, centroids, 100 + k);
    PoisonPoints(&points, kDim);
    SCOPED_TRACE("k=" + std::to_string(k));
    ExpectBitwiseParity(points, centroids);

    // A centroid row of +inf, and a centroid with a NaN coordinate, whose
    // NaN distances sit beside finite ones and must never win or become
    // second (first, middle and last).
    for (size_t j : {size_t{0}, k / 2, k - 1}) {
      SCOPED_TRACE("non-finite centroid " + std::to_string(j));
      std::vector<double> values = centroids.values();
      std::fill(values.begin() + j * kDim, values.begin() + (j + 1) * kDim,
                kInf);
      auto with_inf = Dataset::FromFlat(kDim, values);
      ASSERT_TRUE(with_inf.ok()) << with_inf.status();
      ExpectBitwiseParity(points, *with_inf);
      values = centroids.values();
      values[j * kDim + 1] = kNan;
      auto with_nan = Dataset::FromFlat(kDim, std::move(values));
      ASSERT_TRUE(with_nan.ok()) << with_nan.status();
      ExpectBitwiseParity(points, *with_nan);
    }
  }
}

// AssignMasked with no mask is the full scan through a row list, on
// every kernel, for any k (one mask word holds 64) and any dimension
// (the AVX2 kernel transposes 16 coordinates at a time), with tails off
// the 8-lane step, and with non-finite points and centroids.
TEST_F(AssignBlockAdversarialTest, AssignMaskedWithoutMaskIsAssignBlock) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (size_t dim : {1u, 5u, 6u, 8u, 16u, 17u, 40u}) {
    for (size_t k : {1u, 2u, 7u, 8u, 9u, 19u, 20u, 64u, 65u, 100u}) {
      SCOPED_TRACE("dim=" + std::to_string(dim) + " k=" + std::to_string(k));
      const Dataset centroids = MakePoints(k, dim, 400 + 7 * dim + k);
      std::vector<double> points = NearPoints(251, centroids, 500 + k);
      PoisonPoints(&points, dim);
      ExpectBitwiseParity(points, centroids);
      // A first centroid with a NaN coordinate and a last row of +inf
      // (the tail of a tile, or a tile of its own at k = 65).
      std::vector<double> values = centroids.values();
      std::fill(values.end() - static_cast<std::ptrdiff_t>(dim),
                values.end(), kInf);
      values[dim / 2] = std::numeric_limits<double>::quiet_NaN();
      auto poisoned = Dataset::FromFlat(dim, std::move(values));
      ASSERT_TRUE(poisoned.ok()) << poisoned.status();
      ExpectBitwiseParity(points, *poisoned);
    }
  }
}

// PruneBlock parity: every kernel's survivor count, survivor rows,
// decayed bounds and distances (memcmp) must equal the scalar reference's
// over 4-point tails of every length, dimensions around the vector width,
// every kind of decay, and bounds that are non-finite or sit exactly on
// the range limits.
TEST(PruneBlockParityTest, PruneBlockBitwiseMatchesScalar) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr size_t kK = 9;
  // A bound l with l·(1 − δ) == limit, when one exists.
  auto exact_preimage = [](double limit) {
    double l = limit / (1.0 - kPruneSlack);
    for (int step = 0; step < 4 && l * (1.0 - kPruneSlack) != limit;
         ++step) {
      l = std::nextafter(l, l * (1.0 - kPruneSlack) < limit ? kInf : 0.0);
    }
    return l;
  };
  const double specials[] = {kNan,
                             kInf,
                             -kInf,
                             0.0,
                             -0.0,
                             kPruneMinBound,
                             kPruneMaxBound,
                             exact_preimage(kPruneMinBound),
                             exact_preimage(kPruneMaxBound)};
  const DistanceKernel& scalar = GetKernel(KernelKind::kScalar);
  size_t total_pruned = 0;
  size_t total_kept = 0;
  size_t total_no_ring = 0;
  for (size_t dim : {1u, 5u, 6u, 8u, 17u}) {
    const Dataset centroids = MakePoints(kK, dim, 110 + dim);
    std::vector<double> s(kK);
    scalar.CentroidDriftAndSeparation(nullptr, centroids.data(), kK, dim,
                                      nullptr, s.data());
    s[1] = kNan;
    s[2] = kInf;
    s[3] = kPruneMinBound;
    s[4] = exact_preimage(kPruneMaxBound);
    for (size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 256u}) {
      Rng rng(120 + n * 31 + dim);
      // Points near their centroid, so real bounds prune many of them.
      std::vector<uint32_t> assign(n);
      std::vector<double> points(n * dim), lower0(n);
      for (size_t t = 0; t < n; ++t) {
        assign[t] = t % 3 == 0 ? kK - 1
                               : static_cast<uint32_t>(rng.UniformInt(kK));
        const auto c = centroids.Row(assign[t]);
        for (size_t d = 0; d < dim; ++d) {
          points[t * dim + d] = c[d] + 0.1 * (rng.UniformDouble() - 0.5);
        }
        lower0[t] = rng.UniformInt(3) == 0
                        ? specials[rng.UniformInt(std::size(specials))]
                        : 4.0 * s[0] * rng.UniformDouble();
      }
      for (double shift : {0.0, 0.25 * s[0], kInf}) {
        SCOPED_TRACE("dim=" + std::to_string(dim) +
                     " n=" + std::to_string(n) +
                     " shift=" + std::to_string(shift));
        std::vector<double> ref_lower = lower0, ref_dist2(n, -1.0);
        std::vector<uint32_t> ref_rows(n);
        std::vector<uint8_t> ref_levels(n);
        const size_t ref_m = scalar.PruneBlock(
            points.data(), n, dim, centroids.data(), assign.data(), s.data(),
            shift, ref_lower.data(), ref_dist2.data(), ref_rows.data(),
            ref_levels.data());
        ASSERT_LE(ref_m, n);
        total_kept += ref_m;
        total_pruned += n - ref_m;
        for (size_t g = 0; g < ref_m; ++g) {
          const size_t t = ref_rows[g];
          const double s_a = s[assign[t]];
          const double r = (std::sqrt(ref_dist2[t]) + s_a) * kRingGrow;
          const bool ring = s_a > kPruneMinBound && s_a < kPruneMaxBound &&
                            r > kPruneMinBound && r < kPruneMaxBound;
          EXPECT_EQ(ref_levels[g], ring ? RingLevel(r * r, s_a) : kNoRing);
          total_no_ring += !ring;
        }
        for (const DistanceKernel* kernel : AvailableKernels()) {
          SCOPED_TRACE(kernel->name());
          for (bool with_levels : {true, false}) {
            std::vector<double> lower = lower0, dist2(n, -1.0);
            std::vector<uint32_t> rows(n, 0xdeadbeef);
            std::vector<uint8_t> levels(n, 0xee);
            const size_t m = kernel->PruneBlock(
                points.data(), n, dim, centroids.data(), assign.data(),
                s.data(), shift, lower.data(), dist2.data(), rows.data(),
                with_levels ? levels.data() : nullptr);
            ASSERT_EQ(m, ref_m);
            EXPECT_EQ(0, std::memcmp(rows.data(), ref_rows.data(),
                                     m * sizeof(uint32_t)));
            EXPECT_EQ(0, std::memcmp(lower.data(), ref_lower.data(),
                                     n * sizeof(double)));
            EXPECT_EQ(0, std::memcmp(dist2.data(), ref_dist2.data(),
                                     n * sizeof(double)));
            if (with_levels) {
              EXPECT_EQ(0, std::memcmp(levels.data(), ref_levels.data(), m));
            } else {
              EXPECT_TRUE(std::all_of(levels.begin(), levels.end(),
                                      [](uint8_t l) { return l == 0xee; }));
            }
          }
        }
      }
    }
  }
  // The inputs exercise both outcomes, and survivors the ball refuses.
  EXPECT_GT(total_pruned, 0u);
  EXPECT_GT(total_kept, 0u);
  EXPECT_GT(total_no_ring, 0u);
  EXPECT_LT(total_no_ring, total_kept);
}

// AssignMasked parity: every kernel's assign, dist2 and lower bytes
// (memcmp) must equal the scalar reference's, rows the call does not
// name must stay untouched, over dims 1-9 (the AVX2 kernel's D = 6 path
// and its general one), masks of 1 to 64 bits, exact ties from
// duplicated centroids and from points mirrored between two centroids,
// and 8-point steps whose lanes belong to different owners; and null rows
// (every point in order) give the row list 0..n−1's bytes.
class AssignMaskedTest : public ::testing::TestWithParam<size_t> {
 protected:
  static constexpr size_t kK = 64;

  // Centroids on a small integer grid, with duplicates: rows 40-63 copy
  // rows 0-23. Integer coordinates keep every distance exact.
  static Dataset GridCentroids(size_t dim, uint64_t seed) {
    Rng rng(seed);
    Dataset c(dim);
    std::vector<double> row(dim);
    for (size_t j = 0; j < kK; ++j) {
      for (size_t d = 0; d < dim; ++d) {
        row[d] = j >= 40 ? c.Row(j - 40)[d]
                         : static_cast<double>(rng.UniformInt(7)) - 3.0;
      }
      c.Append(row);
    }
    return c;
  }

  // Points midway between two centroids (mirrored: equidistant from
  // both), on a centroid, or at a random half-integer offset.
  static std::vector<double> TiedPoints(size_t n, const Dataset& c,
                                        uint64_t seed) {
    const size_t dim = c.dim();
    Rng rng(seed);
    std::vector<double> x(n * dim);
    for (size_t i = 0; i < n; ++i) {
      const auto a = c.Row(rng.UniformInt(kK));
      const auto b = c.Row(rng.UniformInt(kK));
      const uint64_t kind = rng.UniformInt(3);
      for (size_t d = 0; d < dim; ++d) {
        x[i * dim + d] =
            kind == 0   ? 0.5 * (a[d] + b[d])
            : kind == 1 ? a[d]
                        : a[d] + 0.5 * static_cast<double>(rng.UniformInt(3));
      }
    }
    return x;
  }

  // A mask of exactly `bits` of the 64 centroids.
  static uint64_t RandomMask(size_t bits, Rng* rng) {
    uint64_t mask = 0;
    while (static_cast<size_t>(std::popcount(mask)) < bits) {
      mask |= uint64_t{1} << rng->UniformInt(kK);
    }
    return mask;
  }

  struct Outputs {
    std::vector<uint32_t> assign;
    std::vector<double> dist2;
    std::vector<double> lower;
  };

  static Outputs Run(const DistanceKernel& kernel,
                     const std::vector<double>& points, size_t dim,
                     const Dataset& centroids,
                     const std::vector<uint32_t>& rows,
                     const std::vector<uint64_t>& masks) {
    return Run(kernel, points, dim, centroids, rows.size(), rows.data(),
               masks);
  }

  // With null rows: the first masks.size() points, in order.
  static Outputs RunInOrder(const DistanceKernel& kernel,
                            const std::vector<double>& points, size_t dim,
                            const Dataset& centroids,
                            const std::vector<uint64_t>& masks) {
    return Run(kernel, points, dim, centroids, masks.size(), nullptr, masks);
  }

  static Outputs Run(const DistanceKernel& kernel,
                     const std::vector<double>& points, size_t dim,
                     const Dataset& centroids, size_t count,
                     const uint32_t* rows,
                     const std::vector<uint64_t>& masks) {
    const size_t n = points.size() / dim;
    Outputs out{std::vector<uint32_t>(n, 0xdeadbeef),
                std::vector<double>(n, -1.0), std::vector<double>(n, -2.0)};
    kernel.AssignMasked(points.data(), count, dim, centroids.data(),
                        centroids.size(), rows, masks.data(),
                        out.assign.data(), out.dist2.data(),
                        out.lower.data());
    return out;
  }

  static void ExpectSame(const Outputs& a, const Outputs& b) {
    ASSERT_EQ(a.assign.size(), b.assign.size());
    const size_t n = a.assign.size();
    EXPECT_EQ(0, std::memcmp(a.assign.data(), b.assign.data(),
                             n * sizeof(uint32_t)));
    EXPECT_EQ(0, std::memcmp(a.dist2.data(), b.dist2.data(),
                             n * sizeof(double)));
    EXPECT_EQ(0, std::memcmp(a.lower.data(), b.lower.data(),
                             n * sizeof(double)));
  }
};

TEST_P(AssignMaskedTest, BitwiseMatchesScalar) {
  const size_t dim = GetParam();
  const Dataset centroids = GridCentroids(dim, 200 + dim);
  const size_t n = 301;
  const std::vector<double> points = TiedPoints(n, centroids, 210 + dim);
  Rng rng(220 + dim);
  // Rows out of order with gaps (every third point is never named); each
  // run of 5 rows shares a mask, so most 8-point steps mix masks.
  std::vector<uint32_t> rows;
  std::vector<uint64_t> masks;
  uint64_t mask = 0;
  for (size_t i = n; i-- > 0;) {
    if (i % 3 == 1) continue;
    if (rows.size() % 5 == 0) mask = RandomMask(1 + rows.size() % kK, &rng);
    rows.push_back(static_cast<uint32_t>(i));
    masks.push_back(mask);
  }
  // Every popcount from 1 to 64 once more, one row each, and a final
  // step of 8 lanes from two owners' rings.
  for (size_t bits = 1; bits <= kK; ++bits) {
    rows.push_back(static_cast<uint32_t>(rng.UniformInt(n)));
    masks.push_back(RandomMask(bits, &rng));
  }
  for (size_t p = 0; p < 8; ++p) {
    rows.push_back(static_cast<uint32_t>(3 * p));
    masks.push_back(p < 3 ? 0x00000000ffff0001ULL : 0x8000ffff00000000ULL);
  }
  const DistanceKernel& scalar = GetKernel(KernelKind::kScalar);
  const Outputs ref = Run(scalar, points, dim, centroids, rows, masks);
  // Rows the call does not name stay untouched.
  std::vector<bool> named(n, false);
  for (uint32_t r : rows) named[r] = true;
  size_t untouched = 0;
  for (size_t i = 0; i < n; ++i) {
    if (named[i]) continue;
    ++untouched;
    EXPECT_EQ(ref.assign[i], 0xdeadbeef);
    EXPECT_EQ(ref.dist2[i], -1.0);
    EXPECT_EQ(ref.lower[i], -2.0);
  }
  EXPECT_GT(untouched, 0u);
  for (const DistanceKernel* kernel : AvailableKernels()) {
    SCOPED_TRACE(kernel->name());
    ExpectSame(Run(*kernel, points, dim, centroids, rows, masks), ref);
    // Tails: every prefix length up to two steps.
    for (size_t len = 1; len <= 16; ++len) {
      SCOPED_TRACE("prefix " + std::to_string(len));
      const std::vector<uint32_t> r(rows.end() - len, rows.end());
      const std::vector<uint64_t> m(masks.end() - len, masks.end());
      ExpectSame(Run(*kernel, points, dim, centroids, r, m),
                 Run(scalar, points, dim, centroids, r, m));
    }
  }
  // Null rows: every point in order, each under its own mask, is the row
  // list 0..n−1 on every kernel, over every prefix up to two steps too.
  std::vector<uint32_t> in_order(n);
  std::iota(in_order.begin(), in_order.end(), 0u);
  std::vector<uint64_t> point_masks(n);
  for (size_t i = 0; i < n; ++i) {
    point_masks[i] = RandomMask(1 + (i / 3) % kK, &rng);
  }
  const Outputs listed =
      Run(scalar, points, dim, centroids, in_order, point_masks);
  for (const DistanceKernel* kernel : AvailableKernels()) {
    SCOPED_TRACE(std::string(kernel->name()) + " null rows");
    ExpectSame(Run(*kernel, points, dim, centroids, in_order, point_masks),
               listed);
    ExpectSame(RunInOrder(*kernel, points, dim, centroids, point_masks),
               listed);
    for (size_t len = 1; len <= 16; ++len) {
      SCOPED_TRACE("prefix " + std::to_string(len));
      const std::vector<uint32_t> r(in_order.begin(), in_order.begin() + len);
      const std::vector<uint64_t> m(point_masks.begin(),
                                    point_masks.begin() + len);
      ExpectSame(RunInOrder(*kernel, points, dim, centroids, m),
                 Run(scalar, points, dim, centroids, r, m));
    }
  }
}

// The property the ball rests on: a mask that holds a point's nearest
// and second-nearest centroids gives the full scan's assign, dist2 and
// lower, on every kernel.
TEST_P(AssignMaskedTest, EqualsAssignBlockWhenMaskHoldsNearestTwo) {
  const size_t dim = GetParam();
  const Dataset centroids = GridCentroids(dim, 300 + dim);
  const size_t n = 203;
  const std::vector<double> points = TiedPoints(n, centroids, 310 + dim);
  const FullScan ref = ScalarFullScan(points.data(), n, dim, centroids);
  Rng rng(320 + dim);
  std::vector<uint32_t> rows(n);
  std::vector<uint64_t> masks(n);
  for (size_t i = 0; i < n; ++i) {
    rows[i] = static_cast<uint32_t>(i);
    // The nearest, and the nearest other centroid: the second.
    const double* x = points.data() + i * dim;
    size_t second = ref.assign[i] == 0 ? 1 : 0;
    for (size_t j = 0; j < kK; ++j) {
      if (j != ref.assign[i] && SquaredL2({x, dim}, centroids.Row(j)) <
                                    SquaredL2({x, dim}, centroids.Row(second))) {
        second = j;
      }
    }
    masks[i] = (uint64_t{1} << ref.assign[i]) | (uint64_t{1} << second) |
               RandomMask(rng.UniformInt(12), &rng);
  }
  for (const DistanceKernel* kernel : AvailableKernels()) {
    SCOPED_TRACE(kernel->name());
    const Outputs out = Run(*kernel, points, dim, centroids, rows, masks);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out.assign[i], ref.assign[i]) << "point " << i;
      ASSERT_EQ(out.dist2[i], ref.dist2[i]) << "point " << i;
      ASSERT_EQ(out.lower[i], ref.lower[i]) << "point " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, AssignMaskedTest,
                         ::testing::Range<size_t>(1, 10),
                         [](const auto& info) {
                           return "d" + std::to_string(info.param);
                         });

TEST(KernelParityEndToEnd, FitEqualAcrossKernelFlagValues) {
  // The user-facing contract: KMeans().Fit under --kernel=scalar equals
  // Fit under any other available --kernel value, with the assignment
  // step's bound pruning off and on, on a 10k-point cell.
  const Dataset cell = MakePoints(10000, 6, 30);
  for (bool accelerate : {false, true}) {
    SCOPED_TRACE(accelerate ? "pruned" : "full scan");
    KMeansConfig config;
    config.k = 40;
    config.restarts = 2;
    config.lloyd.accelerate = accelerate;
    config.lloyd.kernel = &GetKernel(KernelKind::kScalar);
    auto ref = KMeans(config).Fit(cell);
    ASSERT_TRUE(ref.ok()) << ref.status();
    for (const DistanceKernel* kernel : AvailableKernels()) {
      SCOPED_TRACE(kernel->name());
      KMeansConfig alt = config;
      alt.lloyd.kernel = kernel;
      auto model = KMeans(alt).Fit(cell);
      ASSERT_TRUE(model.ok()) << model.status();
      EXPECT_EQ(model->centroids, ref->centroids);
      EXPECT_EQ(model->sse, ref->sse);
    }
  }
}

TEST(KernelRegistry, ScalarAlwaysAvailableAndAutoResolves) {
  EXPECT_TRUE(KernelAvailable(KernelKind::kScalar));
  EXPECT_TRUE(KernelAvailable(KernelKind::kAuto));
  EXPECT_STREQ(GetKernel(KernelKind::kScalar).name(), "scalar");
  // The auto-resolved kernel is one of the available kernels.
  const DistanceKernel& def = GetKernel(KernelKind::kAuto);
  bool found = false;
  for (const DistanceKernel* kernel : AvailableKernels()) {
    if (kernel == &def) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(KernelRegistry, ParseRoundTripsAndRejectsUnknown) {
  for (KernelKind kind :
       {KernelKind::kAuto, KernelKind::kScalar, KernelKind::kAvx2}) {
    auto parsed = ParseKernelKind(KernelKindToString(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_TRUE(ParseKernelKind("sse9").status().IsInvalidArgument());
  EXPECT_TRUE(ParseKernelKind("neon").status().IsInvalidArgument());
}

TEST(CentroidBlockTest, CopiesRowMajor) {
  const Dataset centroids = MakePoints(5, 3, 40);
  CentroidBlock block;
  block.Load(centroids);
  EXPECT_EQ(block.k(), 5u);
  EXPECT_EQ(block.dim(), 3u);
  EXPECT_EQ(0, std::memcmp(block.row_major(), centroids.data(),
                           5 * 3 * sizeof(double)));
  // A reload with a smaller shape replaces the copy.
  const Dataset fewer = MakePoints(2, 3, 41);
  block.Load(fewer);
  EXPECT_EQ(block.k(), 2u);
  EXPECT_EQ(0, std::memcmp(block.row_major(), fewer.data(),
                           2 * 3 * sizeof(double)));
}

// AssignNearest's precondition: a non-empty centroid set of the points'
// dimension. An empty one would leave every point at index 0.
TEST(AssignNearestDeathTest, EmptyCentroidsDie) {
  const Dataset points = MakePoints(4, 3, 42);
  std::vector<uint32_t> assign(4);
  std::vector<double> dist2(4);
  EXPECT_DEATH(AssignNearest(points.data(), 4, 3, Dataset(3), assign.data(),
                             dist2.data()),
               "Check failed: !centroids.empty\\(\\)");
}

}  // namespace
}  // namespace pmkm
