#include "data/csv.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "common/fault.h"

namespace pmkm {
namespace {

TEST(CsvTest, WritesWeightedRowsWithHeader) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("pmkm_csv_" + std::to_string(::getpid()) + ".csv"))
          .string();
  WeightedDataset data(2);
  data.Append(std::vector<double>{1.5, -0.0}, 600.0);
  // 0.1 + 0.2 has no short decimal form: 17 significant digits keep it
  // exact.
  data.Append(std::vector<double>{0.1 + 0.2, 1e300}, 0.25);
  ASSERT_TRUE(WriteWeightedCsv(path, data).ok());
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  EXPECT_EQ(text,
            "a0,a1,weight\n"
            "1.5,-0,600\n"
            "0.30000000000000004,1.0000000000000001e+300,0.25\n");
}

TEST(CsvTest, FailedWriteKeepsThePreviousFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("pmkm_csv_keep_" + std::to_string(::getpid()) + ".csv"))
          .string();
  const auto read_all = [&path] {
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  WeightedDataset data(1);
  data.Append(std::vector<double>{1.0}, 2.0);
  ASSERT_TRUE(WriteWeightedCsv(path, data).ok());
  const std::string before = read_all();

  data.Append(std::vector<double>{3.0}, 4.0);
  FaultRegistry::Global().Arm("io.rename", FaultSpec{.nth = 1, .message = ""});
  const Status st = WriteWeightedCsv(path, data);
  FaultRegistry::Global().Reset();
  EXPECT_TRUE(st.IsIOError()) << st;
  EXPECT_EQ(read_all(), before);
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".tmp");
}

}  // namespace
}  // namespace pmkm
