#!/usr/bin/env python3
"""Same-process A/B of one chunk fit: two revisions' k-means, alternated.

Builds the src/ of revisions A and B into two shared objects and loads
both into this process. Each exports one C entry that runs
KMeans::FitWeighted on a chunk and returns the model bytes and the rdtsc
cycles of the fit. Each round fits the same chunks on both sides, each
chunk on A and B back to back with the first side alternating, so host
drift hits both sides alike. For each shape it prints the
per-round cycle ratio A/B (above 1: B is faster), its median, and a
bootstrap 95% interval of the median, and calls the shape "improved",
"regressed" or "no change" from where that interval lies against 1.0.
It exits 1 if the two revisions produce any different model byte.

  scripts/ab_fit.py 48fe7cf .            # a revision against the checkout
  scripts/ab_fit.py . . --shapes paper   # A against A: the noise check

A revision is a git revision, extracted with `git archive` into the
build directory, or a directory holding a source tree (`.` is the
checkout as it is, uncommitted edits included). Both objects are built by
a small CMake project (PROJECT_CMAKE below) that includes the tree's src/
and repeats the root CMakeLists.txt's default settings: RelWithDebInfo,
C++20, -Wall -Wextra -Werror=unused-result, and src/'s own FP contraction
off. It differs from the benchmark build in one flag: the objects are
position-independent (-fPIC), as a shared object must be. They are built
with hidden visibility and loaded RTLD_LOCAL, so neither can bind to the
other's symbols. A setting added to the root CMakeLists.txt must be
copied into PROJECT_CMAKE by hand. Inputs come from the A tree's
pmkm_genbuckets (seed 3): one MISR-like D=6 cell per shape, cut into the
engine's default-budget chunks of 2,730 points. Every shape runs 40
rounds after 2 warm-up rounds.

The harness times only the fit. Changes to the scan, checkpoint or serve
layers need benchmark/run.py pairs instead.
"""

import argparse
import ctypes
import os
import random
import shutil
import statistics
import struct
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHUNK_POINTS = 2730  # the engine's chunk at the default 512 KiB budget, D=6
MODEL_CAPACITY = 1 << 20
ROUNDS = 40  # the A-against-A interval (EXPERIMENTS L6) is measured at 40
SEED = 3     # pmkm_genbuckets seed of every shape's cell

# name: (k, restarts, points in the cell, chunks fitted per round)
SHAPES = {
    "paper": (40, 10, 75000, 4),   # paper_stream / paper_1core
    "serve": (8, 5, 10000, 4),     # serve_open / serve_saturate
    "cells": (4, 1, 5000, 2),      # many_cells_io
}

PROJECT_CMAKE = """\
cmake_minimum_required(VERSION 3.16)
project(pmkm_ab_fit CXX)
set(CMAKE_CXX_STANDARD 20)
set(CMAKE_CXX_STANDARD_REQUIRED ON)
set(CMAKE_CXX_EXTENSIONS OFF)
set(CMAKE_POSITION_INDEPENDENT_CODE ON)
set(CMAKE_CXX_VISIBILITY_PRESET hidden)
set(CMAKE_VISIBILITY_INLINES_HIDDEN ON)
add_compile_options(-Wall -Wextra -Werror=unused-result)
find_package(Threads REQUIRED)
set(PMKM_ROOT "@SOURCE@")
include_directories("${PMKM_ROOT}/src")
add_subdirectory("${PMKM_ROOT}/src" "${CMAKE_BINARY_DIR}/src")
add_subdirectory("${PMKM_ROOT}/tools" "${CMAKE_BINARY_DIR}/tools")
add_library(pmkm_ab_fit SHARED entry.cc)
target_link_libraries(pmkm_ab_fit PRIVATE pmkm_cluster pmkm_data pmkm_obs
                      pmkm_common Threads::Threads)
target_link_options(pmkm_ab_fit PRIVATE -Wl,--exclude-libs,ALL)
"""

ENTRY_CC = r"""
#include <cstdint>
#include <cstring>
#include <vector>
#if defined(__x86_64__)
#include <x86intrin.h>
#else
#include <chrono>
#endif

#include "cluster/kmeans.h"
#include "cluster/serialize.h"

namespace {
uint64_t Cycles() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return std::chrono::steady_clock::now().time_since_epoch().count();
#endif
}
}  // namespace

// Fits the n row-major points with k-means (k, restarts, seed) and
// writes EncodeModel's bytes to model[0, *model_size) and the fit's
// cycles to *cycles. Returns 0, 1 if the fit failed, 2 if the bytes
// exceed capacity.
extern "C" __attribute__((visibility("default"))) int pmkm_ab_fit(
    const double* points, size_t n, size_t dim, size_t k, size_t restarts,
    uint64_t seed, uint8_t* model, size_t capacity, size_t* model_size,
    uint64_t* cycles) {
  pmkm::Dataset data(dim);
  data.Reserve(n);
  for (size_t i = 0; i < n; ++i) data.Append({points + i * dim, dim});
  const pmkm::WeightedDataset weighted =
      pmkm::WeightedDataset::FromUnweighted(std::move(data));
  pmkm::KMeansConfig config;
  config.k = k;
  config.restarts = restarts;
  config.seed = seed;
  const pmkm::KMeans kmeans(config);
  const uint64_t start = Cycles();
  auto fit = kmeans.FitWeighted(weighted);
  *cycles = Cycles() - start;
  if (!fit.ok()) return 1;
  const std::vector<uint8_t> bytes = pmkm::EncodeModel(*fit);
  *model_size = bytes.size();
  if (bytes.size() > capacity) return 2;
  std::memcpy(model, bytes.data(), bytes.size());
  return 0;
}
"""


def fail(message):
    sys.stderr.write(f"ab_fit: {message}\n")
    sys.exit(2)


def run(command, log):
    with open(log, "a") as out:
        if subprocess.run(command, stdout=out,
                          stderr=subprocess.STDOUT).returncode != 0:
            sys.stderr.write(Path(log).read_text()[-4000:])
            fail(f"{' '.join(map(str, command))} failed; log in {log}")


def source_tree(rev, build_dir):
    """Returns (label, directory holding src/ and tools/) for a revision."""
    path = Path(rev)
    if (path / "src" / "CMakeLists.txt").exists():
        return str(path.resolve()), path.resolve()
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                          rev + "^{commit}"], capture_output=True,
                         text=True)
    if sha.returncode != 0:
        fail(f"{rev!r} is neither a source tree nor a git revision")
    sha = sha.stdout.strip()
    tree = build_dir / f"src-{sha[:12]}"
    if not (tree / "src" / "CMakeLists.txt").exists():
        shutil.rmtree(tree, ignore_errors=True)
        tree.mkdir(parents=True)
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", sha, "src", "tools"],
            capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive,
                       check=True)
    return f"{rev} ({sha[:12]})", tree


def build(tree, out, targets):
    """Builds `targets` of tree into out/build; returns that directory."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "project").mkdir(exist_ok=True)
    (out / "project" / "CMakeLists.txt").write_text(
        PROJECT_CMAKE.replace("@SOURCE@", str(tree)))
    (out / "project" / "entry.cc").write_text(ENTRY_CC)
    log = out / "build.log"
    log.write_text("")
    binary = out / "build"
    if not (binary / "CMakeCache.txt").exists():
        run(["cmake", "-S", out / "project", "-B", binary,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log)
    run(["cmake", "--build", binary, "-j", str(min(4, os.cpu_count())),
         "--target", *targets], log)
    return binary


def read_bucket(path):
    """The points of a .pmkb bucket (data/io.h), as (dim, n, payload)."""
    data = Path(path).read_bytes()
    magic, _, dim, _, _, _, count = struct.unpack_from("<IIIiiIQ", data)
    if magic != 0x424B4D50:
        fail(f"{path} is not a bucket")
    payload = data[32:32 + count * dim * 8]
    return dim, count, payload


def make_chunks(genbuckets, work, shape):
    """k, restarts and the shape's chunks, from one generated cell."""
    k, restarts, points, chunks = SHAPES[shape]
    out = work / f"{shape}-n{points}-seed{SEED}"
    if not out.exists():
        subprocess.run([str(genbuckets), f"--out={out}", "--mode=cells",
                        "--cells=1", f"--n={points}", "--dim=6",
                        f"--seed={SEED}"], check=True,
                       stdout=subprocess.DEVNULL)
    (bucket,) = sorted(out.glob("*.pmkb"))
    dim, count, payload = read_bucket(bucket)
    result = []
    for c in range(chunks):
        start = c * CHUNK_POINTS
        n = min(CHUNK_POINTS, count - start)
        if n <= 0:
            break
        raw = payload[start * dim * 8:(start + n) * dim * 8]
        result.append(((ctypes.c_double * (n * dim)).from_buffer_copy(raw),
                       n, dim))
    return k, restarts, result


class Fitter:
    def __init__(self, library):
        self.lib = ctypes.CDLL(str(library), mode=os.RTLD_LOCAL)
        self.fit = self.lib.pmkm_ab_fit
        self.fit.restype = ctypes.c_int
        self.fit.argtypes = [
            ctypes.c_void_p, ctypes.c_size_t, ctypes.c_size_t,
            ctypes.c_size_t, ctypes.c_size_t, ctypes.c_uint64,
            ctypes.c_void_p, ctypes.c_size_t,
            ctypes.POINTER(ctypes.c_size_t),
            ctypes.POINTER(ctypes.c_uint64)]
        self.model = (ctypes.c_uint8 * MODEL_CAPACITY)()

    def __call__(self, chunk, k, restarts, seed):
        points, n, dim = chunk
        size = ctypes.c_size_t(0)
        cycles = ctypes.c_uint64(0)
        status = self.fit(points, n, dim, k, restarts, seed, self.model,
                          MODEL_CAPACITY, ctypes.byref(size),
                          ctypes.byref(cycles))
        if status != 0:
            fail(f"fit failed with status {status}")
        return bytes(self.model[:size.value]), cycles.value


def bootstrap_median(samples, draws, rng):
    medians = sorted(
        statistics.median(rng.choices(samples, k=len(samples)))
        for _ in range(draws))
    return medians[int(0.025 * draws)], medians[int(0.975 * draws) - 1]


def measure(fitters, k, restarts, chunks, rounds):
    """Per-round A/B cycle ratios, mean cycles per round of each side, and
    whether any model byte differed."""
    ratios = []
    totals = [0, 0]
    differ = False
    for r in range(rounds):
        cycles = [0, 0]
        for c, chunk in enumerate(chunks):
            # Both sides fit the chunk back to back, and the side that
            # goes first alternates, so drift within a round cancels.
            models = [None, None]
            for side in (0, 1) if (r + c) % 2 == 0 else (1, 0):
                models[side], spent = fitters[side](chunk, k, restarts, 1 + c)
                cycles[side] += spent
            differ |= models[0] != models[1]
        totals[0] += cycles[0]
        totals[1] += cycles[1]
        ratios.append(cycles[0] / cycles[1])
    return ratios, [t / rounds for t in totals], differ


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="baseline: git revision or source tree")
    parser.add_argument("b", help="candidate: git revision or source tree")
    parser.add_argument("--shapes", default=",".join(SHAPES),
                        help="comma-separated subset of "
                        + ", ".join(SHAPES))
    parser.add_argument("--build-dir", default=str(ROOT / "build-ab"))
    args = parser.parse_args()
    shapes = args.shapes.split(",")
    for shape in shapes:
        if shape not in SHAPES:
            fail(f"unknown shape {shape!r}")

    build_dir = Path(args.build_dir).resolve()
    fitters = []
    for side, rev in (("a", args.a), ("b", args.b)):
        label, tree = source_tree(rev, build_dir)
        targets = ["pmkm_ab_fit"] + (["pmkm_genbuckets"] if side == "a"
                                     else [])
        binary = build(tree, build_dir / f"obj-{side}", targets)
        if side == "a":
            genbuckets = binary / "tools" / "pmkm_genbuckets"
        fitters.append(Fitter(binary / "libpmkm_ab_fit.so"))
        print(f"{side.upper()} = {label}")

    rng = random.Random(1)
    any_differ = False
    for shape in shapes:
        k, restarts, chunks = make_chunks(genbuckets, build_dir / "inputs",
                                          shape)
        measure(fitters, k, restarts, chunks, 2)  # warm-up
        ratios, mean, differ = measure(fitters, k, restarts, chunks, ROUNDS)
        any_differ |= differ
        low, high = bootstrap_median(ratios, 2000, rng)
        wins = sum(ratio > 1.0 for ratio in ratios)
        verdict = ("improved" if low > 1.0 else
                   "regressed" if high < 1.0 else "no change")
        print(f"{shape}: k={k} R={restarts}, {len(chunks)} chunks of "
              f"<={CHUNK_POINTS} points per side per round; "
              f"A {mean[0] / 1e6:.1f} Mcycles, B {mean[1] / 1e6:.1f} "
              f"Mcycles per round")
        print(f"  A/B median {statistics.median(ratios):.3f}, 95% interval "
              f"[{low:.3f}, {high:.3f}], B faster in {wins}/{len(ratios)} "
              f"rounds: {verdict}"
              + ("; MODEL BYTES DIFFER" if differ else "; models identical"))
    sys.exit(1 if any_differ else 0)


if __name__ == "__main__":
    main()
