#include "cluster/serialize.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "cluster/distance.h"
#include "cluster/kmeans.h"
#include "data/generator.h"
#include "data/io.h"

namespace pmkm {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pmkm_ser_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

ClusteringModel FitSample() {
  Rng rng(1);
  const Dataset cell = GenerateMisrLikeCell(500, &rng);
  KMeansConfig config;
  config.k = 7;
  config.restarts = 2;
  auto model = KMeans(config).Fit(cell);
  PMKM_CHECK(model.ok());
  return std::move(model).value();
}

TEST_F(SerializeTest, RoundTripWithoutAssignments) {
  const ClusteringModel original = FitSample();
  const std::string path = Path("m.pmkm");
  ASSERT_TRUE(SaveModel(path, original).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->centroids, original.centroids);
  EXPECT_EQ(loaded->weights, original.weights);
  EXPECT_DOUBLE_EQ(loaded->sse, original.sse);
  EXPECT_DOUBLE_EQ(loaded->mse_per_point, original.mse_per_point);
  EXPECT_EQ(loaded->iterations, original.iterations);
  EXPECT_EQ(loaded->converged, original.converged);
}

TEST_F(SerializeTest, EmptyModelRejected) {
  ClusteringModel empty;
  EXPECT_TRUE(SaveModel(Path("e.pmkm"), empty).IsInvalidArgument());
}

TEST_F(SerializeTest, UnloadableModelIsNotSaved) {
  // SaveModel applies LoadModel's value checks, so it never publishes a
  // file that could not be read back.
  ClusteringModel model = FitSample();
  model.weights[1] = std::numeric_limits<double>::quiet_NaN();
  const std::string path = Path("nan_weight.pmkm");
  const Status st = SaveModel(path, model);
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_NE(st.message().find("weight of centroid 1"), std::string::npos)
      << st;
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_F(SerializeTest, MissingFileFails) {
  EXPECT_TRUE(LoadModel(Path("ghost.pmkm")).status().IsIOError());
}

TEST_F(SerializeTest, GarbageFileRejected) {
  const std::string path = Path("junk.pmkm");
  std::ofstream(path) << "definitely not a model, but long enough to "
                         "clear the minimum size check....";
  EXPECT_TRUE(LoadModel(path).status().IsIOError());
}

TEST_F(SerializeTest, BitFlipDetectedByChecksum) {
  const ClusteringModel original = FitSample();
  const std::string path = Path("flip.pmkm");
  ASSERT_TRUE(SaveModel(path, original).ok());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(60, std::ios::beg);
    char c;
    f.seekg(60, std::ios::beg);
    f.get(c);
    f.seekp(60, std::ios::beg);
    f.put(static_cast<char>(c ^ 0x01));
  }
  const auto st = LoadModel(path).status();
  ASSERT_TRUE(st.IsIOError());
  EXPECT_NE(st.message().find("checksum"), std::string::npos);
}

TEST_F(SerializeTest, TruncationDetected) {
  const ClusteringModel original = FitSample();
  const std::string path = Path("trunc.pmkm");
  ASSERT_TRUE(SaveModel(path, original).ok());
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 16);
  EXPECT_TRUE(LoadModel(path).status().IsIOError());
}

// Byte offsets of the fixed header fields (see serialize.h).
constexpr size_t kOffK = 8;
constexpr size_t kOffDim = 16;
constexpr size_t kOffCentroids = 64;

// A model file's bytes, patched in place and re-hashed so the FNV trailer
// is valid again: the crafted payload reaches the parser, not the
// checksum check.
class CraftedModel {
 public:
  explicit CraftedModel(const std::string& path) : path_(path) {
    std::ifstream in(path, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in), {});
  }
  template <typename T>
  void Put(size_t offset, T value) {
    PMKM_CHECK(offset + sizeof(T) <= bytes_.size() - sizeof(uint64_t));
    std::memcpy(bytes_.data() + offset, &value, sizeof(T));
  }
  Status Load() {
    const size_t body = bytes_.size() - sizeof(uint64_t);
    const uint64_t hash =
        internal::Fnv1a64(bytes_.data(), body, internal::kFnvOffset);
    std::memcpy(bytes_.data() + body, &hash, sizeof(hash));
    std::ofstream(path_, std::ios::binary | std::ios::trunc)
        .write(bytes_.data(), static_cast<std::streamsize>(bytes_.size()));
    return LoadModel(path_).status();
  }

 private:
  std::string path_;
  std::vector<char> bytes_;
};

// The crafted file is rejected as corrupt, with its path in the message
// and the reason's key word.
void ExpectRejected(const Status& st, const std::string& path,
                    const std::string& reason) {
  ASSERT_TRUE(st.IsIOError()) << st;
  EXPECT_NE(st.message().find(path), std::string::npos) << st;
  EXPECT_NE(st.message().find(reason), std::string::npos) << st;
}

TEST_F(SerializeTest, ReHashedOriginalStillLoads) {
  const std::string path = Path("same.pmkm");
  ASSERT_TRUE(SaveModel(path, FitSample()).ok());
  EXPECT_TRUE(CraftedModel(path).Load().ok());
}

TEST_F(SerializeTest, HugeHeaderShapeRejectedBeforeAllocating) {
  const std::string path = Path("huge.pmkm");
  ASSERT_TRUE(SaveModel(path, FitSample()).ok());
  {
    // k = 2^40 used to reach a k·dim allocation and abort the process
    // with std::bad_alloc.
    CraftedModel m(path);
    m.Put<uint64_t>(kOffK, uint64_t{1} << 40);
    ExpectRejected(m.Load(), path, "exceeds its payload");
  }
  {
    // k·(dim + 1) wraps around 2^64 to a small number.
    CraftedModel m(path);
    m.Put<uint64_t>(kOffK, 2);
    m.Put<uint64_t>(kOffDim, (uint64_t{1} << 63) - 1);
    ExpectRejected(m.Load(), path, "exceeds its payload");
  }
  {
    CraftedModel m(path);
    m.Put<uint64_t>(kOffDim, std::numeric_limits<uint64_t>::max());
    ExpectRejected(m.Load(), path, "exceeds its payload");
  }
}

TEST_F(SerializeTest, NonFiniteCentroidRejected) {
  const ClusteringModel model = FitSample();
  const std::string path = Path("nan.pmkm");
  ASSERT_TRUE(SaveModel(path, model).ok());
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    CraftedModel m(path);
    // Centroid 2, coordinate 1.
    m.Put<double>(kOffCentroids + (2 * model.dim() + 1) * sizeof(double),
                  bad);
    ExpectRejected(m.Load(), path, "centroid 2");
  }
}

TEST_F(SerializeTest, BadWeightRejected) {
  const ClusteringModel model = FitSample();
  const std::string path = Path("w.pmkm");
  ASSERT_TRUE(SaveModel(path, model).ok());
  const size_t weights = kOffCentroids + model.k() * model.dim() * 8;
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(), -1.0}) {
    CraftedModel m(path);
    m.Put<double>(weights + 3 * sizeof(double), bad);
    ExpectRejected(m.Load(), path, "weight of centroid 3");
  }
  // A zero weight (a starved centroid) is legal.
  CraftedModel m(path);
  m.Put<double>(weights + 3 * sizeof(double), 0.0);
  EXPECT_TRUE(m.Load().ok());
}

// The on-disk bytes of a small hand-built model, pinned as hex. The
// layout is the one serialize.h documents; a codec change that moves any
// byte (including the FNV-1a trailer) fails here.
ClusteringModel GoldenModel() {
  ClusteringModel model;
  auto centroids = Dataset::FromFlat(2, {1.5, -0.0, 0.1 + 0.2, 4.9e-324});
  PMKM_CHECK(centroids.ok());
  model.centroids = std::move(centroids).value();
  model.weights = {3.0, 0.5};
  model.sse = 2.25;
  model.mse_per_point = 0.0625;
  model.iterations = 5;
  model.converged = true;
  return model;
}

std::string FileHex(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string hex;
  for (std::istreambuf_iterator<char> it(in), end; it != end; ++it) {
    static const char kDigits[] = "0123456789abcdef";
    const auto byte = static_cast<uint8_t>(*it);
    hex += kDigits[byte >> 4];
    hex += kDigits[byte & 0xf];
  }
  return hex;
}

void WriteHex(const std::string& path, const std::string& hex) {
  std::ofstream out(path, std::ios::binary);
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.put(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
}

TEST_F(SerializeTest, GoldenBytesWithoutAssignments) {
  const std::string path = Path("golden.pmkm");
  ASSERT_TRUE(SaveModel(path, GoldenModel()).ok());
  EXPECT_EQ(FileHex(path),
      "504d4b4d010000000200000000000000020000000000000000000000"
      "000000000000000000000240000000000000b03f0500000000000000"
      "0100000000000000000000000000f83f000000000000008034333333"
      "3333d33f01000000000000000000000000000840000000000000e03f"
      "026e334634f558ca");
}

// The same model with flags bit 0 and three per-point assignments after
// the weights, as the codec once wrote it when asked to: no shipped
// binary did, and the decoder now rejects the flag.
TEST_F(SerializeTest, GoldenBytesWithAssignments) {
  const std::string path = Path("golden_a.pmkm");
  WriteHex(path,
      "504d4b4d010000000200000000000000020000000000000001000000"
      "000000000000000000000240000000000000b03f0500000000000000"
      "0100000000000000000000000000f83f000000000000008034333333"
      "3333d33f01000000000000000000000000000840000000000000e03f"
      "0300000000000000010000000000000001000000e8c5256672942bbf");
  ExpectRejected(LoadModel(path).status(), path, "flags");
}

// Every seed of the model fuzz corpus loads or is rejected as its name
// says: valid.pmkm is a well-formed model, huge_k.pmkm claims 2^40
// centroids, and assignments_flag.pmkm carries the retired flag bit 0 with
// its assignment section.
TEST_F(SerializeTest, FuzzCorpusSeedsLoadOrRejectAsNamed) {
  const std::filesystem::path dir = PMKM_MODEL_CORPUS_DIR;
  size_t seeds = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++seeds;
    const std::string path = entry.path().string();
    const std::string name = entry.path().filename().string();
    SCOPED_TRACE(name);
    const Status st = LoadModel(path).status();
    if (name == "valid.pmkm") {
      EXPECT_TRUE(st.ok()) << st;
    } else if (name == "huge_k.pmkm") {
      ExpectRejected(st, path, "exceeds its payload");
    } else if (name == "assignments_flag.pmkm") {
      ExpectRejected(st, path, "flags");
    } else {
      ADD_FAILURE() << "unexpected seed " << name;
    }
  }
  EXPECT_EQ(seeds, 3u);
}

TEST_F(SerializeTest, LoadedModelPredictsIdentically) {
  Rng rng(2);
  const Dataset cell = GenerateMisrLikeCell(300, &rng);
  const ClusteringModel original = FitSample();
  const std::string path = Path("pred.pmkm");
  ASSERT_TRUE(SaveModel(path, original).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok());
  for (size_t i = 0; i < cell.size(); ++i) {
    EXPECT_EQ(NearestCentroidIndex(cell.Row(i), loaded->centroids),
              NearestCentroidIndex(cell.Row(i), original.centroids));
  }
}

}  // namespace
}  // namespace pmkm
