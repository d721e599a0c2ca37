#!/usr/bin/env bash
# Link check (DESIGN.md §17): src/ is exactly what the shipped binaries
# call. Fails when any global function defined in src/ is in none of them,
# or when any src/ header is included by none of their sources.
#
#   1. Configures the root project with tests, benchmarks and examples
#      off, at Debug (-O0, so no function is inlined away into its
#      callers and reported as dead), with -ffunction-sections and
#      -Wl,--gc-sections,--exclude-libs,ALL, and builds the four tools:
#      pmkm_cluster, pmkm_serve, pmkm_inspect and pmkm_genbuckets. Builds
#      pmkm_bench from benchmark/ the same way.
#   2. Lists the global text (`T`) symbols of every src/ library except
#      pmkm_schedcheck, which is test-only instrumentation.
#   3. Fails, naming each function and its object file, if any of them is
#      in none of the five binaries.
#   4. Fails, naming each header, if a src/ header (outside
#      common/schedcheck/) is in no compiler dependency file (<object>.o.d)
#      of the two builds: no translation unit of theirs includes it, even
#      through another header.
#
# The check works on single functions. Both projects set
# CMAKE_ENABLE_EXPORTS (-rdynamic, which the profiler's dladdr needs), and
# an exported symbol is a root that --gc-sections keeps. --exclude-libs,ALL
# stops the linker exporting the symbols of the static libpmkm_*.a
# archives, so every function no binary calls is collected, and only for
# this check: shipped and test builds keep their exports. The join is on
# demangled names, which spell the Itanium constructor (C1/C2/C3) and
# destructor (D0/D1/D2) variants alike: a constructor or destructor counts
# as linked when any of its variants is. Code only the experiments,
# examples or tests need belongs in bench/lib/, and so does a header only
# they include; a test hook is declared in its src/ header and defined in
# tests/support/. There is no baseline file: any function or header in
# either set fails the check.
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
flags=(-DCMAKE_BUILD_TYPE=Debug
       -DCMAKE_CXX_FLAGS=-ffunction-sections
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections,--exclude-libs,ALL)

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

# Demangled names hold spaces, so the lists below are tab-separated.
tab=$'\t'
linked="$(mktemp)"
included="$(mktemp)"
trap 'rm -f "${linked}" "${included}"' EXIT
for bin in "${binaries[@]}"; do
  nm --defined-only "${bin}" | awk '{ print $NF }'
done | c++filt | sort -u > "${linked}"

# "<function>\t<library>:<object>" for every global text symbol, one line
# per function; `nm -A` prefixes each archive symbol with
# "<archive>:<member>:".
defined="$(
  for lib in "${libraries[@]}"; do
    nm -A --defined-only -g "${lib}" |
      awk -v lib="$(basename "${lib}")" '$2 == "T" {
        n = split($1, parts, ":"); print $3 "\t" lib ":" parts[n - 1] }'
  done | c++filt | sort -u
)"
unlinked="$(join -t "${tab}" -v 1 - "${linked}" <<< "${defined}")"

# Every header a compiled object read, as its path under src/. A
# dependency file is "<object>: <source> <header> ... \" lines; the paths
# are canonicalized so a symlinked checkout still matches.
mapfile -t depfiles < <(find "${out}/project" "${out}/benchmark" \
                          -name '*.o.d')
if [[ "${#depfiles[@]}" -eq 0 ]]; then
  echo "FAIL: no compiler dependency files under ${out}" >&2
  exit 1
fi
src_dir="$(realpath src)"
cat "${depfiles[@]}" | tr -s ' \\' '\n\n' | grep '\.h$' | sort -u |
  xargs realpath -m | sed -n "s|^${src_dir}/||p" | sort -u > "${included}"
headers="$(find src -name '*.h' ! -path 'src/common/schedcheck/*' |
           sed 's|^src/||' | sort)"
unincluded="$(comm -23 - "${included}" <<< "${headers}")"

status=0
if [[ -n "${unlinked}" ]]; then
  echo "FAIL: src/ functions that no shipped binary calls (move them to" \
       "bench/lib/, define them in tests/support/, or delete them):" >&2
  awk -F "${tab}" '{ print "  " $2 ": " $1 }' <<< "${unlinked}" | sort >&2
  status=1
fi
if [[ -n "${unincluded}" ]]; then
  echo "FAIL: src/ headers that no shipped binary's sources include (move" \
       "them to bench/lib/ or delete them):" >&2
  sed 's/^/  /' <<< "${unincluded}" >&2
  status=1
fi
[[ "${status}" -eq 0 ]] || exit 1
echo "link check: OK ($(wc -l <<< "${defined}") global functions in" \
     "${#libraries[@]} src/ libraries, all linked by the" \
     "${#binaries[@]} binaries; $(wc -l <<< "${headers}") src/ headers," \
     "all included by their sources)"
