// Fuzz harness for the CSV importers (src/data/csv.cc): ReadCsv and
// ReadWeightedCsv over arbitrary bytes. Either call must return a Status
// or a structurally consistent dataset — never crash, hang, or produce a
// dataset whose flat size disagrees with rows x dim, or that holds a
// non-finite value or weight.

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "data/csv.h"
#include "fuzz_io_util.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > (1u << 18)) return 0;  // CSV parsing is line-based; cap cost
  const std::string path = pmkm_fuzz::WriteTempInput("csv", data, size);

  pmkm::Result<pmkm::Dataset> ds = pmkm::ReadCsv(path);
  if (ds.ok()) {
    const pmkm::Dataset& d = ds.value();
    if (d.values().size() != d.size() * d.dim()) std::abort();
    for (double v : d.values()) {
      if (!std::isfinite(v)) std::abort();
    }
  }

  pmkm::Result<pmkm::WeightedDataset> wds = pmkm::ReadWeightedCsv(path);
  if (wds.ok()) {
    const pmkm::WeightedDataset& w = wds.value();
    if (w.weights().size() != w.points().size()) std::abort();
    for (double v : w.weights()) {
      if (!(v > 0.0) || !std::isfinite(v)) std::abort();
    }
  }
  return 0;
}
