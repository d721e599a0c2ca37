// CSV export of centroid sets — the interop path for users whose analysis
// lives outside the pmkm binary formats (R, pandas, spreadsheets).
// Deliberately small: comma separator, a header row, no quoting (the data
// are numeric matrices).

#ifndef PMKM_DATA_CSV_H_
#define PMKM_DATA_CSV_H_

#include <string>

#include "common/status.h"
#include "data/weighted.h"

namespace pmkm {

/// Writes `data` as a header row "a0,...,a<D-1>,weight", then one row per
/// point with its weight as the last column. Values are printed with 17
/// significant digits, so every double reads back exactly. The file is
/// published through AtomicWriteFile: a failed write keeps the old file.
Status WriteWeightedCsv(const std::string& path,
                        const WeightedDataset& data);

}  // namespace pmkm

#endif  // PMKM_DATA_CSV_H_
