#include "data/csv.h"

#include <cstdio>
#include <fstream>

namespace pmkm {

Status WriteWeightedCsv(const std::string& path,
                        const WeightedDataset& data) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  const size_t dim = data.dim();
  for (size_t d = 0; d < dim; ++d) {
    out << (d > 0 ? "," : "") << "a" << d;
  }
  out << ",weight\n";
  char buf[64];
  for (size_t i = 0; i < data.size(); ++i) {
    const auto row = data.Row(i);
    for (size_t d = 0; d < dim; ++d) {
      std::snprintf(buf, sizeof(buf), "%.17g", row[d]);
      out << (d > 0 ? "," : "") << buf;
    }
    std::snprintf(buf, sizeof(buf), "%.17g", data.weights()[i]);
    out << "," << buf << "\n";
  }
  out.flush();
  if (!out) return Status::IOError("short write: " + path);
  return Status::OK();
}

}  // namespace pmkm
