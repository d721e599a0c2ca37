// Kernel parity: every SIMD distance kernel must be bitwise-identical to
// the scalar reference — same assignments, same squared distances, same
// accumulated sums, same drift/separation — on randomized weighted
// datasets across dimensionalities, and end-to-end Fit results must not
// depend on the kernel at all. This is the contract that makes --kernel
// a pure speed knob.

#include "cluster/kernels/kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
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

TEST_P(KernelParityTest, AssignBlockBitwiseMatchesScalar) {
  const size_t dim = GetParam();
  const size_t n = 3000;
  const size_t k = 40;
  const Dataset points = MakePoints(n, dim, 11);
  const Dataset centroids = MakePoints(k, dim, 12);
  CentroidBlock block;
  block.Load(centroids);

  const DistanceKernel& scalar = GetKernel(KernelKind::kScalar);
  std::vector<uint32_t> ref_assign(n);
  std::vector<double> ref_dist2(n), ref_second2(n);
  scalar.AssignBlock(points.data(), n, dim, block, ref_assign.data(),
                     ref_dist2.data(), ref_second2.data());

  for (const DistanceKernel* kernel : AvailableKernels()) {
    SCOPED_TRACE(kernel->name());
    std::vector<uint32_t> assign(n);
    std::vector<double> dist2(n), second2(n);
    kernel->AssignBlock(points.data(), n, dim, block, assign.data(),
                        dist2.data(), second2.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(assign[i], ref_assign[i]) << "point " << i;
      ASSERT_EQ(dist2[i], ref_dist2[i]) << "point " << i;
      ASSERT_EQ(second2[i], ref_second2[i]) << "point " << i;
    }
    // The no-second-best entry point must agree with itself too.
    std::vector<uint32_t> assign2(n);
    std::vector<double> dist2b(n);
    kernel->AssignBlock(points.data(), n, dim, block, assign2.data(),
                        dist2b.data());
    EXPECT_EQ(assign2, ref_assign);
    EXPECT_EQ(dist2b, ref_dist2);
  }
}

TEST_P(KernelParityTest, AccumulateBlockBitwiseMatchesScalar) {
  const size_t dim = GetParam();
  const size_t n = 3000;
  const size_t k = 17;
  const Dataset points = MakePoints(n, dim, 13);
  const WeightedDataset data = MakeWeighted(points, 14);
  Rng rng(15);
  std::vector<uint32_t> assign(n);
  for (size_t i = 0; i < n; ++i) {
    assign[i] = static_cast<uint32_t>(rng.UniformInt(k));
  }

  const DistanceKernel& scalar = GetKernel(KernelKind::kScalar);
  std::vector<double> ref_sums(k * dim, 0.0), ref_w(k, 0.0);
  scalar.AccumulateBlock(data.points().data(), data.weights().data(), n,
                         dim, assign.data(), ref_sums.data(),
                         ref_w.data());

  for (const DistanceKernel* kernel : AvailableKernels()) {
    SCOPED_TRACE(kernel->name());
    std::vector<double> sums(k * dim, 0.0), w(k, 0.0);
    kernel->AccumulateBlock(data.points().data(), data.weights().data(), n,
                            dim, assign.data(), sums.data(), w.data());
    EXPECT_EQ(sums, ref_sums);
    EXPECT_EQ(w, ref_w);
  }
}

TEST_P(KernelParityTest, DriftAndSeparationBitwiseMatchesScalar) {
  const size_t dim = GetParam();
  const size_t k = 40;
  const Dataset old_c = MakePoints(k, dim, 16);
  const Dataset new_c = MakePoints(k, dim, 17);
  CentroidBlock block;
  block.Load(new_c);

  const DistanceKernel& scalar = GetKernel(KernelKind::kScalar);
  std::vector<double> ref_drift(k), ref_s(k);
  scalar.CentroidDriftAndSeparation(old_c.data(), new_c.data(), block, k,
                                    dim, ref_drift.data(), ref_s.data());

  for (const DistanceKernel* kernel : AvailableKernels()) {
    SCOPED_TRACE(kernel->name());
    std::vector<double> drift(k), s(k);
    kernel->CentroidDriftAndSeparation(old_c.data(), new_c.data(), block,
                                       k, dim, drift.data(), s.data());
    EXPECT_EQ(drift, ref_drift);
    EXPECT_EQ(s, ref_s);
  }
}

TEST_P(KernelParityTest, WeightedLloydFitIdenticalAcrossKernels) {
  const size_t dim = GetParam();
  const Dataset points = MakePoints(2000, dim, 18);
  const WeightedDataset data = MakeWeighted(points, 19);
  Rng seed_rng(20);
  auto seeds = SelectSeeds(data, 8, SeedingMethod::kRandom, &seed_rng);
  ASSERT_TRUE(seeds.ok()) << seeds.status();

  LloydConfig ref_config;
  ref_config.track_assignments = true;
  ref_config.kernel = &GetKernel(KernelKind::kScalar);
  Rng ref_rng(21);
  auto ref = RunWeightedLloyd(data, *seeds, ref_config, &ref_rng);
  ASSERT_TRUE(ref.ok()) << ref.status();

  for (const DistanceKernel* kernel : AvailableKernels()) {
    SCOPED_TRACE(kernel->name());
    LloydConfig config = ref_config;
    config.kernel = kernel;
    Rng rng(21);
    auto model = RunWeightedLloyd(data, *seeds, config, &rng);
    ASSERT_TRUE(model.ok()) << model.status();
    EXPECT_EQ(model->centroids, ref->centroids);
    EXPECT_EQ(model->assignments, ref->assignments);
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
  auto seeds = SelectSeeds(data, 8, SeedingMethod::kRandom, &seed_rng);
  ASSERT_TRUE(seeds.ok()) << seeds.status();

  LloydConfig ref_config;
  ref_config.track_assignments = true;
  ref_config.accelerate = false;
  ref_config.kernel = &GetKernel(KernelKind::kScalar);
  Rng ref_rng(25);
  auto ref = RunWeightedLloyd(data, *seeds, ref_config, &ref_rng);
  ASSERT_TRUE(ref.ok()) << ref.status();

  for (const DistanceKernel* kernel : AvailableKernels()) {
    SCOPED_TRACE(kernel->name());
    LloydConfig config = ref_config;
    config.accelerate = true;
    config.kernel = kernel;
    Rng rng(25);
    auto model = RunWeightedLloyd(data, *seeds, config, &rng);
    ASSERT_TRUE(model.ok()) << model.status();
    EXPECT_EQ(model->centroids, ref->centroids);
    EXPECT_EQ(model->assignments, ref->assignments);
    EXPECT_EQ(model->sse, ref->sse);
    EXPECT_EQ(model->iterations, ref->iterations);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, KernelParityTest,
                         ::testing::Values(1u, 5u, 6u, 8u, 17u),
                         [](const auto& info) {
                           return "d" + std::to_string(info.param);
                         });

// Adversarial AssignBlock parity: every kernel's assign/dist2/second2
// bytes (memcmp, so NaN payloads and signed zeros count) must equal the
// scalar scan's, with and without second2 — and so must the per-point
// NearestCentroidIndex scan's (assign, dist2) — over tails (n not a
// multiple of any block size), padded lanes and padded centroid blocks (k
// not a multiple of 4 or 8), duplicate centroids across lanes and blocks,
// and non-finite points and centroids.
class AssignBlockAdversarialTest : public ::testing::Test {
 protected:
  static constexpr size_t kDim = 3;

  // Points drawn near the centroids, so duplicates are often nearest.
  static std::vector<double> NearPoints(size_t n, const Dataset& centroids,
                                        uint64_t seed) {
    Rng rng(seed);
    std::vector<double> x(n * kDim);
    for (size_t i = 0; i < n; ++i) {
      const auto c = centroids.Row(rng.UniformInt(centroids.size()));
      for (size_t d = 0; d < kDim; ++d) {
        x[i * kDim + d] = c[d] + (rng.UniformInt(5) == 0
                                      ? 0.0
                                      : rng.UniformDouble() - 0.5);
      }
    }
    return x;
  }

  static void ExpectBitwiseParity(const std::vector<double>& points,
                                  const Dataset& centroids) {
    const size_t n = points.size() / kDim;
    CentroidBlock block;
    block.Load(centroids);
    const DistanceKernel& scalar = GetKernel(KernelKind::kScalar);
    std::vector<uint32_t> ref_assign(n);
    std::vector<double> ref_dist2(n), ref_second2(n);
    scalar.AssignBlock(points.data(), n, kDim, block, ref_assign.data(),
                       ref_dist2.data(), ref_second2.data());
    for (const DistanceKernel* kernel : AvailableKernels()) {
      SCOPED_TRACE(kernel->name());
      for (bool with_second : {true, false}) {
        SCOPED_TRACE(with_second ? "with second2" : "without second2");
        std::vector<uint32_t> assign(n, 0xdeadbeef);
        std::vector<double> dist2(n, -1.0), second2(n, -1.0);
        kernel->AssignBlock(points.data(), n, kDim, block, assign.data(),
                            dist2.data(),
                            with_second ? second2.data() : nullptr);
        EXPECT_EQ(0, std::memcmp(assign.data(), ref_assign.data(),
                                 n * sizeof(uint32_t)));
        EXPECT_EQ(0, std::memcmp(dist2.data(), ref_dist2.data(),
                                 n * sizeof(double)));
        if (with_second) {
          EXPECT_EQ(0, std::memcmp(second2.data(), ref_second2.data(),
                                   n * sizeof(double)));
        } else {
          EXPECT_TRUE(std::all_of(second2.begin(), second2.end(),
                                  [](double v) { return v == -1.0; }));
        }
      }
    }
    // Through a row list (the pruned pass's survivors): descending, with
    // gaps and a repeated row, so the block tails land differently. Each
    // kernel must return what it returns on a gathered copy.
    std::vector<uint32_t> rows;
    for (size_t i = n; i-- > 0;) {
      if (i % 3 != 1) rows.push_back(static_cast<uint32_t>(i));
    }
    rows.push_back(0);
    const size_t m = rows.size();
    std::vector<double> gathered;
    for (uint32_t r : rows) {
      gathered.insert(gathered.end(), points.begin() + r * kDim,
                      points.begin() + (r + 1) * kDim);
    }
    for (const DistanceKernel* kernel : AvailableKernels()) {
      SCOPED_TRACE(std::string(kernel->name()) + " through rows");
      std::vector<uint32_t> ref_a(m), assign(m, 0xdeadbeef);
      std::vector<double> ref_d(m), ref_s(m), dist2(m, -1.0),
          second2(m, -1.0);
      kernel->AssignBlock(gathered.data(), m, kDim, block, ref_a.data(),
                          ref_d.data(), ref_s.data());
      kernel->AssignBlock(points.data(), m, kDim, block, assign.data(),
                          dist2.data(), second2.data(), rows.data());
      EXPECT_EQ(0, std::memcmp(assign.data(), ref_a.data(),
                               m * sizeof(uint32_t)));
      EXPECT_EQ(0, std::memcmp(dist2.data(), ref_d.data(),
                               m * sizeof(double)));
      EXPECT_EQ(0, std::memcmp(second2.data(), ref_s.data(),
                               m * sizeof(double)));
    }
    // The per-point scan (Predict, online k-means, histogram encoding)
    // is one more implementation of the same query.
    SCOPED_TRACE("NearestCentroidIndex");
    for (size_t i = 0; i < n; ++i) {
      double d2 = -1.0;
      const size_t j = NearestCentroidIndex(
          {points.data() + i * kDim, kDim}, centroids, &d2);
      EXPECT_EQ(j, ref_assign[i]) << "point " << i;
      EXPECT_EQ(0, std::memcmp(&d2, &ref_dist2[i], sizeof(double)))
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

    CentroidBlock block;
    block.Load(centroids);
    const size_t n = points.size() / kDim;
    for (const DistanceKernel* kernel : AvailableKernels()) {
      SCOPED_TRACE(kernel->name());
      std::vector<uint32_t> assign(n);
      std::vector<double> dist2(n), second2(n);
      kernel->AssignBlock(points.data(), n, kDim, block, assign.data(),
                          dist2.data(), second2.data());
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
        EXPECT_EQ(second2[i], 0.0);
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
    // One non-finite coordinate per point, in every coordinate position,
    // at positions that land in every lane of a 4-point block.
    const double specials[] = {kNan, kInf, -kInf};
    for (size_t i = 0; i < 40; ++i) {
      points[(6 * i + i % 4) * kDim + i % kDim] = specials[i % 3];
    }
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
  for (size_t dim : {1u, 5u, 6u, 8u, 17u}) {
    const Dataset centroids = MakePoints(kK, dim, 110 + dim);
    CentroidBlock block;
    block.Load(centroids);
    std::vector<double> s(kK);
    scalar.CentroidDriftAndSeparation(nullptr, centroids.data(), block, kK,
                                      dim, nullptr, s.data());
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
        const size_t ref_m = scalar.PruneBlock(
            points.data(), n, dim, centroids.data(), assign.data(), s.data(),
            shift, ref_lower.data(), ref_dist2.data(), ref_rows.data());
        ASSERT_LE(ref_m, n);
        total_kept += ref_m;
        total_pruned += n - ref_m;
        for (const DistanceKernel* kernel : AvailableKernels()) {
          SCOPED_TRACE(kernel->name());
          std::vector<double> lower = lower0, dist2(n, -1.0);
          std::vector<uint32_t> rows(n, 0xdeadbeef);
          const size_t m = kernel->PruneBlock(
              points.data(), n, dim, centroids.data(), assign.data(),
              s.data(), shift, lower.data(), dist2.data(), rows.data());
          ASSERT_EQ(m, ref_m);
          EXPECT_EQ(0, std::memcmp(rows.data(), ref_rows.data(),
                                   m * sizeof(uint32_t)));
          EXPECT_EQ(0, std::memcmp(lower.data(), ref_lower.data(),
                                   n * sizeof(double)));
          EXPECT_EQ(0, std::memcmp(dist2.data(), ref_dist2.data(),
                                   n * sizeof(double)));
        }
      }
    }
  }
  // The inputs exercise both outcomes.
  EXPECT_GT(total_pruned, 0u);
  EXPECT_GT(total_kept, 0u);
}

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
  // The auto-resolved default is one of the available kernels.
  const DistanceKernel& def = DefaultKernel();
  bool found = false;
  for (const DistanceKernel* kernel : AvailableKernels()) {
    if (kernel == &def) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(KernelRegistry, ParseRoundTripsAndRejectsUnknown) {
  for (KernelKind kind : {KernelKind::kAuto, KernelKind::kScalar,
                          KernelKind::kAvx2, KernelKind::kNeon}) {
    auto parsed = ParseKernelKind(KernelKindToString(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_TRUE(ParseKernelKind("sse9").status().IsInvalidArgument());
}

TEST(KernelRegistry, SetDefaultKernelSwapsAndRestores) {
  const KernelKind original = DefaultKernel().kind();
  auto previous = SetDefaultKernel(KernelKind::kScalar);
  ASSERT_TRUE(previous.ok()) << previous.status();
  EXPECT_EQ(DefaultKernel().kind(), KernelKind::kScalar);
  ASSERT_TRUE(SetDefaultKernel(original).ok());
  EXPECT_EQ(DefaultKernel().kind(), original);
}

TEST(CentroidBlockTest, TransposesAndPadsWithInfinity) {
  const Dataset centroids = MakePoints(5, 3, 40);
  CentroidBlock block;
  block.Load(centroids);
  EXPECT_EQ(block.k(), 5u);
  EXPECT_EQ(block.dim(), 3u);
  EXPECT_EQ(block.padded_k() % CentroidBlock::kLanePad, 0u);
  const double* t = block.transposed();
  for (size_t d = 0; d < 3; ++d) {
    for (size_t j = 0; j < 5; ++j) {
      EXPECT_EQ(t[d * block.padded_k() + j], centroids.Row(j)[d]);
    }
    for (size_t j = 5; j < block.padded_k(); ++j) {
      EXPECT_TRUE(std::isinf(t[d * block.padded_k() + j]));
    }
  }
}

}  // namespace
}  // namespace pmkm
