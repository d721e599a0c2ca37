#include "data/csv.h"

#include <cstdio>

#include "common/file.h"

namespace pmkm {

Status WriteWeightedCsv(const std::string& path,
                        const WeightedDataset& data) {
  std::string text;
  const size_t dim = data.dim();
  for (size_t d = 0; d < dim; ++d) {
    text += (d > 0 ? ",a" : "a") + std::to_string(d);
  }
  text += ",weight\n";
  char buf[64];
  for (size_t i = 0; i < data.size(); ++i) {
    const auto row = data.Row(i);
    for (size_t d = 0; d < dim; ++d) {
      std::snprintf(buf, sizeof(buf), "%.17g", row[d]);
      if (d > 0) text += ',';
      text += buf;
    }
    std::snprintf(buf, sizeof(buf), ",%.17g\n", data.weights()[i]);
    text += buf;
  }
  return AtomicWriteFile(path, text);
}

}  // namespace pmkm
