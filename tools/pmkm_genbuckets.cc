// pmkm_genbuckets — generates synthetic grid-bucket files.
//
// Two modes:
//   --mode=swath  simulate MISR orbits and bin footprints into cells
//   --mode=cells  draw N-point MISR-like mixture cells directly
//
//   $ pmkm_genbuckets --out=/tmp/buckets --mode=cells --cells=4 --n=20000

#include <cmath>
#include <filesystem>
#include <iostream>
#include <string>

#include "common/flags.h"
#include "common/status.h"
#include "data/generator.h"
#include "data/io.h"
#include "data/misr.h"

namespace {

int Fail(const pmkm::Status& st) {
  std::cerr << "pmkm_genbuckets: " << st << "\n";
  return pmkm::StatusExitCode(st);
}

// Rejects out-of-range sizes before anything is generated, so a bad flag
// is a usage error instead of an abort inside the generators.
pmkm::Status CheckSizes(int64_t cells, int64_t n, int64_t dim,
                        int64_t orbits, int64_t min_cell_points,
                        double cell_degrees) {
  struct Bound {
    const char* flag;
    int64_t value;
    int64_t min;
  };
  for (const Bound& b : {Bound{"n", n, 1}, Bound{"dim", dim, 1},
                         Bound{"orbits", orbits, 1}, Bound{"cells", cells, 0},
                         Bound{"min-cell-points", min_cell_points, 0}}) {
    if (b.value < b.min) {
      return pmkm::Status::InvalidArgument(
          std::string("--") + b.flag + " must be >= " +
          std::to_string(b.min) + ", got " + std::to_string(b.value));
    }
  }
  if (!std::isfinite(cell_degrees) || cell_degrees <= 0.0) {
    return pmkm::Status::InvalidArgument(
        "--cell-degrees must be finite and > 0, got " +
        std::to_string(cell_degrees));
  }
  return pmkm::Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "buckets";
  std::string mode = "cells";
  int64_t cells = 4;
  int64_t n = 20000;
  int64_t dim = 6;
  int64_t orbits = 4;
  int64_t min_cell_points = 100;
  double cell_degrees = 5.0;
  int64_t seed = 2004;
  pmkm::ObsFlags obs_flags;
  pmkm::FlagParser parser;
  parser
      .SetDescription(
          "pmkm_genbuckets: generate synthetic MISR-like grid-bucket "
          "files.")
      .AddString("out", &out, "output directory")
      .AddString("mode", &mode, "cells | swath")
      .AddInt("cells", &cells, "cells mode: number of cells")
      .AddInt("n", &n, "cells mode: points per cell")
      .AddInt("dim", &dim, "cells mode: attributes per point")
      .AddInt("orbits", &orbits, "swath mode: orbits to simulate")
      .AddInt("min-cell-points", &min_cell_points,
              "swath mode: skip smaller cells")
      .AddDouble("cell-degrees", &cell_degrees,
                 "swath mode: grid cell size")
      .AddInt("seed", &seed, "master random seed");
  obs_flags.Register(&parser);
  const pmkm::Status st = parser.Parse(argc, argv);
  if (st.IsCancelled()) return 0;
  if (!st.ok()) {
    std::cerr << parser.Usage(argv[0]);
    return Fail(st);
  }
  if (const pmkm::Status os = obs_flags.Apply(); !os.ok()) {
    return Fail(os);
  }
  if (const pmkm::Status cs = CheckSizes(cells, n, dim, orbits,
                                         min_cell_points, cell_degrees);
      !cs.ok()) {
    return Fail(cs);
  }

  std::filesystem::create_directories(out);
  size_t written = 0, total_points = 0;

  if (mode == "cells") {
    pmkm::Rng rng(static_cast<uint64_t>(seed));
    for (int64_t c = 0; c < cells; ++c) {
      pmkm::GridBucket bucket;
      bucket.cell = pmkm::GridCellId{static_cast<int32_t>(c % 180 - 90),
                                     static_cast<int32_t>(c % 360 - 180)};
      pmkm::MisrCellSpec spec;
      spec.dim = static_cast<size_t>(dim);
      pmkm::Rng cell_rng = rng.Fork(static_cast<uint64_t>(c));
      bucket.points = pmkm::GenerateMisrLikeCell(
          static_cast<size_t>(n), &cell_rng, spec);
      const std::string path =
          out + "/" + bucket.cell.ToString() + ".pmkb";
      const pmkm::Status ws = pmkm::WriteGridBucket(path, bucket);
      if (!ws.ok()) return Fail(ws);
      ++written;
      total_points += bucket.points.size();
    }
  } else if (mode == "swath") {
    pmkm::MisrSimConfig config;
    config.seed = static_cast<uint64_t>(seed);
    pmkm::MisrSwathSimulator sim(config);
    auto grid = sim.SimulateToGrid(static_cast<size_t>(orbits),
                                   cell_degrees);
    if (!grid.ok()) return Fail(grid.status());
    for (const auto& [id, points] : grid->buckets()) {
      if (points.size() < static_cast<size_t>(min_cell_points)) continue;
      pmkm::GridBucket bucket;
      bucket.cell = id;
      bucket.points = points;
      const std::string path = out + "/" + id.ToString() + ".pmkb";
      const pmkm::Status ws = pmkm::WriteGridBucket(path, bucket);
      if (!ws.ok()) return Fail(ws);
      ++written;
      total_points += points.size();
    }
  } else {
    return Fail(pmkm::Status::InvalidArgument(
        "unknown --mode=" + mode + " (use cells|swath)"));
  }

  std::cout << "wrote " << written << " bucket file(s), " << total_points
            << " points, to " << out << "\n";
  if (written == 0) {
    return Fail(pmkm::Status::NotFound(
        "no bucket qualified (every cell was below --min-cell-points?)"));
  }
  return 0;
}
