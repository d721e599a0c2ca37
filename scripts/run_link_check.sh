#!/usr/bin/env bash
# Link check (DESIGN.md §16): src/ is exactly what the shipped binaries
# link. Fails when any src/ object is linked into none of them.
#
#   1. Configures the root project with tests, benchmarks and examples
#      off, plus -ffunction-sections and -Wl,--gc-sections, and builds
#      the four tools: pmkm_cluster, pmkm_serve, pmkm_inspect and
#      pmkm_genbuckets. Builds pmkm_bench from benchmark/ the same way.
#   2. Lists the global text (`T`) symbols of every src/ library except
#      pmkm_schedcheck, which is test-only instrumentation.
#   3. Fails, naming each symbol and its object file, if any of them is
#      in none of the five binaries.
#
# The check works on whole translation units, not single functions. Both
# projects set CMAKE_ENABLE_EXPORTS (-rdynamic, which the profiler's
# dladdr needs), so the linker exports, and therefore keeps, every global
# function of an object file it pulls in; --gc-sections can only drop
# the objects no binary references. So it proves "every src/ .cc is
# linked by a shipped binary": an uncalled function inside a linked .cc
# passes, a .cc that no binary links fails. Code only the experiments,
# examples or tests need belongs in bench/lib/. There is no baseline
# file: any symbol in the set fails the check.
#
# Usage:
#   scripts/run_link_check.sh [BUILD_DIR]    (default: build-link)
#
# BUILD_DIR gets two build trees, project/ (the root project) and
# benchmark/.

set -euo pipefail

cd "$(dirname "$0")/.."
export LC_ALL=C

out="${1:-build-link}"
jobs="$(nproc)"
flags=(-DCMAKE_BUILD_TYPE=RelWithDebInfo
       -DCMAKE_CXX_FLAGS=-ffunction-sections
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)

echo "link check: building the tools (root project)"
cmake -B "${out}/project" -S . "${flags[@]}" \
  -DPMKM_BUILD_TESTS=OFF \
  -DPMKM_BUILD_BENCHMARKS=OFF \
  -DPMKM_BUILD_EXAMPLES=OFF > /dev/null
cmake --build "${out}/project" -j "${jobs}" --target \
  pmkm_cluster_tool pmkm_serve_tool pmkm_inspect pmkm_genbuckets > /dev/null

echo "link check: building pmkm_bench (benchmark/)"
cmake -B "${out}/benchmark" -S benchmark "${flags[@]}" > /dev/null
cmake --build "${out}/benchmark" -j "${jobs}" --target pmkm_bench > /dev/null

binaries=("${out}/project/tools/pmkm_cluster"
          "${out}/project/tools/pmkm_serve"
          "${out}/project/tools/pmkm_inspect"
          "${out}/project/tools/pmkm_genbuckets"
          "${out}/benchmark/pmkm_bench")

mapfile -t libraries < <(find "${out}/project/src" -name 'libpmkm_*.a' \
                           ! -name 'libpmkm_schedcheck.a' | sort)
if [[ "${#libraries[@]}" -eq 0 ]]; then
  echo "FAIL: no src/ libraries under ${out}/project/src" >&2
  exit 1
fi

linked="$(mktemp)"
trap 'rm -f "${linked}"' EXIT
for bin in "${binaries[@]}"; do
  nm --defined-only "${bin}" | awk '{ print $NF }'
done | sort -u > "${linked}"

# "<symbol> <library>:<object>" for every global text symbol; `nm -A`
# prefixes each archive symbol with "<archive>:<member>:".
defined="$(
  for lib in "${libraries[@]}"; do
    nm -A --defined-only -g "${lib}" |
      awk -v lib="$(basename "${lib}")" '$2 == "T" {
        n = split($1, parts, ":"); print $3, lib ":" parts[n - 1] }'
  done | sort -k1,1
)"
unlinked="$(join -v 1 - "${linked}" <<< "${defined}")"

if [[ -n "${unlinked}" ]]; then
  echo "FAIL: src/ code that no shipped binary links (move it to" \
       "bench/lib/, or delete it):" >&2
  awk '{ print "  " $2 ": " $1 }' <<< "${unlinked}" | c++filt | sort -u >&2
  exit 1
fi
echo "link check: OK ($(wc -l <<< "${defined}") global function symbols" \
     "in ${#libraries[@]} src/ libraries, all linked by the" \
     "${#binaries[@]} binaries)"
