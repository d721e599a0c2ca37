#include "data/csv.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

namespace pmkm {
namespace {

// Splits one CSV line into numeric fields. Returns false if any field is
// not a number. strtod also accepts "nan", "inf" and out-of-range values
// (as ±inf); the caller rejects those.
bool ParseNumericLine(const std::string& line,
                      std::vector<double>* fields) {
  fields->clear();
  size_t pos = 0;
  while (pos <= line.size()) {
    size_t comma = line.find(',', pos);
    if (comma == std::string::npos) comma = line.size();
    // Trim whitespace.
    size_t b = pos, e = comma;
    while (b < e && std::isspace(static_cast<unsigned char>(line[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(line[e - 1])))
      --e;
    if (b == e) return false;  // empty field
    const std::string token = line.substr(b, e - b);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return false;
    fields->push_back(v);
    if (comma == line.size()) break;
    pos = comma + 1;
  }
  return !fields->empty();
}

Status WriteRows(const std::string& path, size_t dim, size_t rows,
                 const CsvOptions& options, bool weighted,
                 const double* values, const double* weights) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  char buf[64];
  if (options.header) {
    for (size_t d = 0; d < dim; ++d) {
      out << (d > 0 ? "," : "") << "a" << d;
    }
    if (weighted) out << ",weight";
    out << "\n";
  }
  for (size_t i = 0; i < rows; ++i) {
    for (size_t d = 0; d < dim; ++d) {
      std::snprintf(buf, sizeof(buf), "%.*g", options.precision,
                    values[i * dim + d]);
      out << (d > 0 ? "," : "") << buf;
    }
    if (weighted) {
      std::snprintf(buf, sizeof(buf), "%.*g", options.precision,
                    weights[i]);
      out << "," << buf;
    }
    out << "\n";
  }
  out.flush();
  if (!out) return Status::IOError("short write: " + path);
  return Status::OK();
}

}  // namespace

Status WriteCsv(const std::string& path, const Dataset& data,
                const CsvOptions& options) {
  return WriteRows(path, data.dim(), data.size(), options,
                   /*weighted=*/false, data.data(), nullptr);
}

Status WriteWeightedCsv(const std::string& path,
                        const WeightedDataset& data,
                        const CsvOptions& options) {
  return WriteRows(path, data.dim(), data.size(), options,
                   /*weighted=*/true, data.points().data(),
                   data.weights().data());
}

Result<Dataset> ReadCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  std::string line;
  std::vector<double> fields;
  size_t dim = 0;
  std::vector<double> values;
  size_t line_no = 0;
  bool first_content_line = true;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() ||
        line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    if (!ParseNumericLine(line, &fields)) {
      if (first_content_line) {
        first_content_line = false;  // header row; skip
        continue;
      }
      return Status::InvalidArgument(
          "non-numeric CSV row at line " + std::to_string(line_no) +
          " in " + path);
    }
    for (size_t c = 0; c < fields.size(); ++c) {
      if (!std::isfinite(fields[c])) {
        return Status::InvalidArgument(
            "non-finite value at line " + std::to_string(line_no) +
            ", column " + std::to_string(c + 1) + " in " + path);
      }
    }
    if (dim == 0) {
      dim = fields.size();
    } else if (fields.size() != dim) {
      return Status::InvalidArgument(
          "inconsistent column count at line " + std::to_string(line_no) +
          " in " + path);
    }
    first_content_line = false;
    values.insert(values.end(), fields.begin(), fields.end());
  }
  if (dim == 0) {
    return Status::InvalidArgument("no numeric rows in " + path);
  }
  return Dataset::FromFlat(dim, std::move(values));
}

Result<WeightedDataset> ReadWeightedCsv(const std::string& path) {
  PMKM_ASSIGN_OR_RETURN(Dataset raw, ReadCsv(path));
  if (raw.dim() < 2) {
    return Status::InvalidArgument(
        "weighted CSV needs at least one attribute plus the weight "
        "column: " +
        path);
  }
  const size_t dim = raw.dim() - 1;
  WeightedDataset out(dim);
  for (size_t i = 0; i < raw.size(); ++i) {
    const auto row = raw.Row(i);
    const double w = row[dim];
    if (!(w > 0.0)) {
      return Status::InvalidArgument(
          "non-positive weight at data row " + std::to_string(i) + " in " +
          path);
    }
    out.Append(row.subspan(0, dim), w);
  }
  return out;
}

}  // namespace pmkm
