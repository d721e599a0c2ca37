// Experiment F6 — reproduces Figure 6: overall execution time vs number of
// data points per grid cell, for serial k-means and partial/merge k-means
// with 5 and 10 chunks. Prints the three series (msec, like the paper's
// y-axis).
//
// --kernel selects the distance kernel for every k-means in the sweep
// (assignments are bit-identical across kernels, so only the times move).
// With --kernel=auto the JSON rows keep their historical names
// (fig6_serial, fig6_pm10); an explicit kernel suffixes them
// (fig6_serial_scalar, ...) so before/after rows coexist in one
// BENCH_stream.json.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench/bench_util.h"
#include "cluster/kernels/kernel.h"
#include "obs/json.h"

namespace pmkm {
namespace bench {
namespace {

// Merges a "host" entry (ISA + the kernel this run used) into the bench
// JSON, alongside the RunStats rows WriteBenchJson maintains.
Status WriteHostJson(const std::string& path, const std::string& kernel) {
  JsonValue doc = JsonValue::Object();
  if (std::ifstream in(path); in) {
    std::ostringstream buf;
    buf << in.rdbuf();
    if (auto parsed = JsonValue::Parse(buf.str());
        parsed.ok() && parsed->is_object()) {
      doc = std::move(parsed).value();
    }
  }
  JsonValue host = JsonValue::Object();
  host.Set("isa", HostIsaDescription());
  host.Set("kernel", kernel);
  doc.Set("host", std::move(host));
  std::ofstream out(path, std::ios::trunc);
  out << doc.Dump(2) << "\n";
  if (!out.good()) return Status::IOError("cannot write " + path);
  return Status::OK();
}

int Main(int argc, char** argv) {
  ExperimentGrid grid;
  grid.versions = 1;  // the curve shape needs fewer repeats than Table 2
  std::string json_out;
  std::string kernel_flag = "auto";
  FlagParser parser;
  grid.Register(&parser);
  parser.AddString("json_out", &json_out,
                   "merge machine-readable results into this JSON file")
      .AddString("kernel", &kernel_flag,
                 "distance kernel: scalar | avx2 | neon | auto");
  const Status st = parser.Parse(argc, argv);
  if (st.IsCancelled()) return 0;
  PMKM_CHECK_OK(st);
  grid.Finalize();

  auto kind = ParseKernelKind(kernel_flag);
  PMKM_CHECK_OK(kind.status());
  PMKM_CHECK_OK(SetDefaultKernel(*kind).status());
  const std::string kernel_name = DefaultKernel().name();
  const std::string row_suffix =
      *kind == KernelKind::kAuto ? "" : "_" + kernel_name;

  PrintBanner("Figure 6",
              "overall execution time, serial vs partial/merge k-means",
              grid);
  std::cout << "kernel: " << kernel_name << " (host "
            << HostIsaDescription() << ")\n";
  std::cout << "        N |   serial(ms) |  5-chunk(ms) | 10-chunk(ms) | "
               "serial/10-chunk\n";
  std::cout << "----------+--------------+--------------+--------------+-"
               "---------------\n";

  std::vector<int64_t> sizes = grid.sizes;
  std::sort(sizes.begin(), sizes.end());

  RunStats largest_serial, largest_ten;  // written to --json_out
  for (int64_t n : sizes) {
    std::vector<RunStats> serial, five, ten;
    for (int64_t v = 0; v < grid.versions; ++v) {
      const Dataset cell = MakeCell(n, grid, v);
      const uint64_t seed = 2000 + static_cast<uint64_t>(v);
      serial.push_back(RunSerial(cell, grid, seed));
      five.push_back(RunPartialMerge(cell, grid, 5, seed));
      ten.push_back(RunPartialMerge(cell, grid, 10, seed));
    }
    const RunStats s = Average(serial);
    const RunStats f = Average(five);
    const RunStats t = Average(ten);
    largest_serial = s;  // sizes are sorted: the last row is the largest N
    largest_ten = t;
    std::cout << FmtInt(n, 9) << " | " << Fmt(s.total_ms, 12) << " | "
              << Fmt(f.total_ms, 12) << " | " << Fmt(t.total_ms, 12)
              << " | " << Fmt(s.total_ms / std::max(t.total_ms, 1e-9), 10,
                              2)
              << "x\n";
  }
  std::cout << "\nExpected shape (paper Fig. 6): the serial curve grows "
               "super-linearly in N while\nboth partial/merge curves stay "
               "far flatter; the gap widens with N.\n";
  if (!json_out.empty()) {
    PMKM_CHECK_OK(WriteBenchJson(json_out, "fig6_serial" + row_suffix,
                                 largest_serial));
    PMKM_CHECK_OK(
        WriteBenchJson(json_out, "fig6_pm10" + row_suffix, largest_ten));
    PMKM_CHECK_OK(WriteHostJson(json_out, kernel_name));
    std::cout << "wrote " << json_out << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pmkm

int main(int argc, char** argv) { return pmkm::bench::Main(argc, argv); }
