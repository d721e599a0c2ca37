#include "data/csv.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "data/generator.h"

namespace pmkm {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pmkm_csv_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

TEST_F(CsvTest, RoundTripWithHeader) {
  Rng rng(1);
  const Dataset original = GenerateUniform(57, 4, -1e3, 1e3, &rng);
  const std::string path = Path("a.csv");
  ASSERT_TRUE(WriteCsv(path, original).ok());
  auto read = ReadCsv(path);
  ASSERT_TRUE(read.ok()) << read.status();
  ASSERT_EQ(read->size(), original.size());
  ASSERT_EQ(read->dim(), original.dim());
  // precision=17 round-trips doubles exactly.
  EXPECT_EQ(*read, original);
}

TEST_F(CsvTest, RoundTripWithoutHeader) {
  Rng rng(2);
  const Dataset original = GenerateUniform(20, 2, 0, 1, &rng);
  CsvOptions options;
  options.header = false;
  const std::string path = Path("nh.csv");
  ASSERT_TRUE(WriteCsv(path, original, options).ok());
  auto read = ReadCsv(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, original);
}

TEST_F(CsvTest, WeightedRoundTrip) {
  Rng rng(3);
  WeightedDataset original(3);
  for (int i = 0; i < 25; ++i) {
    original.Append(std::vector<double>{rng.Normal(), rng.Normal(),
                                        rng.Normal()},
                    1.0 + rng.UniformInt(50));
  }
  const std::string path = Path("w.csv");
  ASSERT_TRUE(WriteWeightedCsv(path, original).ok());
  auto read = ReadWeightedCsv(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->points(), original.points());
  EXPECT_EQ(read->weights(), original.weights());
}

TEST_F(CsvTest, HeaderIsDetectedAutomatically) {
  const std::string path = Path("h.csv");
  std::ofstream(path) << "x,y\n1.5,2.5\n3.5,4.5\n";
  auto read = ReadCsv(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->size(), 2u);
  EXPECT_DOUBLE_EQ((*read)(0, 0), 1.5);
}

TEST_F(CsvTest, EmptyLinesSkipped) {
  const std::string path = Path("e.csv");
  std::ofstream(path) << "1,2\n\n  \n3,4\n";
  auto read = ReadCsv(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->size(), 2u);
}

TEST_F(CsvTest, InconsistentColumnsRejected) {
  const std::string path = Path("bad.csv");
  std::ofstream(path) << "1,2\n3,4,5\n";
  EXPECT_TRUE(ReadCsv(path).status().IsInvalidArgument());
}

TEST_F(CsvTest, NonNumericMidFileRejected) {
  const std::string path = Path("mid.csv");
  std::ofstream(path) << "1,2\nfoo,bar\n";
  EXPECT_TRUE(ReadCsv(path).status().IsInvalidArgument());
}

TEST_F(CsvTest, EmptyFileRejected) {
  const std::string path = Path("empty.csv");
  std::ofstream(path) << "";
  EXPECT_TRUE(ReadCsv(path).status().IsInvalidArgument());
}

TEST_F(CsvTest, MissingFileFails) {
  EXPECT_TRUE(ReadCsv(Path("ghost.csv")).status().IsIOError());
}

TEST_F(CsvTest, WeightedRejectsNonPositiveWeight) {
  const std::string path = Path("wz.csv");
  std::ofstream(path) << "a0,weight\n1.0,0.0\n";
  EXPECT_TRUE(ReadWeightedCsv(path).status().IsInvalidArgument());
}

TEST_F(CsvTest, NonFiniteFieldRejectedWithLineAndColumn) {
  // strtod parses all of these; none may reach the clustering.
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "Infinity", "1e999"}) {
    SCOPED_TRACE(bad);
    const std::string path = Path("nf.csv");
    std::ofstream(path) << "x,y\n1.0,2.0\n3.0," << bad << "\n";
    const Status st = ReadCsv(path).status();
    EXPECT_TRUE(st.IsInvalidArgument()) << st;
    EXPECT_NE(st.ToString().find("line 3, column 2"), std::string::npos)
        << st;
  }
}

TEST_F(CsvTest, WeightedRejectsNaNWeight) {
  const std::string path = Path("wnan.csv");
  std::ofstream(path) << "a0,weight\n1.0,2.0\n1.0,nan\n";
  const Status st = ReadWeightedCsv(path).status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_NE(st.ToString().find("line 3, column 2"), std::string::npos) << st;
}

TEST_F(CsvTest, ScientificNotationParsed) {
  const std::string path = Path("sci.csv");
  std::ofstream(path) << "1e3,-2.5E-2\n";
  auto read = ReadCsv(path);
  ASSERT_TRUE(read.ok());
  EXPECT_DOUBLE_EQ((*read)(0, 0), 1000.0);
  EXPECT_DOUBLE_EQ((*read)(0, 1), -0.025);
}

}  // namespace
}  // namespace pmkm
