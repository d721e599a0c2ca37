#!/usr/bin/env bash
# Project static-analysis gate (DESIGN.md §11–12, §16). Runs six stages
# and exits non-zero on any finding:
#
#   1. pmkm_lint          project invariants (tools/pmkm_lint.py)
#   2. thread-safety      full Clang build with -Wthread-safety
#                         -Werror=thread-safety over src/, tools/,
#                         bench/lib/, tests/
#   3. clang-tidy         curated .clang-tidy profile, baseline-free: any
#                         finding fails (suppress at the site with
#                         NOLINT + justification, never via a baseline
#                         file). The compilation database is regenerated
#                         before every run; a database that still misses
#                         a source afterwards is a FAILURE (a stale
#                         compdb silently analyzes the wrong file set),
#                         never a skip.
#   4. call-graph gates   pmkm_ctxcheck (signal-safe, no-block-under-lock,
#                         wait-free, bounded-handler) AND pmkm_detcheck
#                         (unordered-iter, nondet-source, ptr-order,
#                         fp-flags — DESIGN.md §17) over ONE shared
#                         compdb read and source parse
#                         (tools/pmkm_callgraph.py drives both),
#                         baseline-free like clang-tidy: any finding
#                         fails (suppress at the site with a justified
#                         `pmkm-ctxcheck: allow(<rule>)` /
#                         `pmkm-detcheck: allow(<rule>)`).
#   5. schedcheck         PMKM_SCHEDCHECK=ON build + the schedcheck-labeled
#                         ctest suites: lock-order witness, deterministic
#                         schedule explorer, seeded-bug doubles, and
#                         bounded schedule sweeps over the queue/executor
#                         (PR budget; nightly raises PMKM_SCHEDCHECK_SEEDS)
#   6. link check         scripts/run_link_check.sh: every global function
#                         in src/ is linked by a shipped binary (the four
#                         tools and pmkm_bench); the experiment appendix
#                         lives in bench/lib/, test hooks in tests/support/
#
# Stages 2 and 3 need the Clang toolchain (clang++ / clang-tidy). When a
# tool is missing the stage is SKIPPED with a warning — the gate then
# covers what the host can check — unless PMKM_SA_STRICT=1, which turns a
# missing tool into a failure (use in CI, where Clang is installed).
# Stages 4, 5 and 6 run with any compiler.
#
# Usage:
#   scripts/run_static_analysis.sh
#
# Environment:
#   CLANGXX      Clang C++ compiler   (default: clang++)
#   CLANG_TIDY   clang-tidy binary    (default: clang-tidy)
#   PMKM_SA_STRICT=1  fail instead of skip when a tool is missing
#   PMKM_SCHEDCHECK_SEEDS  schedule-sweep seed budget (default here: 200)

set -euo pipefail

cd "$(dirname "$0")/.."

CLANGXX="${CLANGXX:-clang++}"
CLANG_TIDY="${CLANG_TIDY:-clang-tidy}"
STRICT="${PMKM_SA_STRICT:-0}"

failures=0
skipped=0

skip_or_fail() {
  local what="$1"
  if [[ "${STRICT}" == "1" ]]; then
    echo "FAIL: ${what} (PMKM_SA_STRICT=1)" >&2
    failures=$((failures + 1))
  else
    echo "SKIP: ${what}" >&2
    skipped=$((skipped + 1))
  fi
}

# ---------------------------------------------------------------------------
echo "==> stage 1/6: pmkm_lint"
if command -v python3 > /dev/null; then
  if python3 tools/pmkm_lint.py; then
    echo "pmkm_lint: clean"
  else
    failures=$((failures + 1))
  fi
else
  skip_or_fail "python3 not found; cannot run pmkm_lint"
fi

# ---------------------------------------------------------------------------
echo "==> stage 2/6: Clang -Wthread-safety build"
if command -v "${CLANGXX}" > /dev/null; then
  # PMKM_THREAD_SAFETY_ANALYSIS is ON by default under Clang; -Werror
  # makes any thread-safety finding a build failure.
  cmake -B build-tsa -S . \
    -DCMAKE_CXX_COMPILER="${CLANGXX}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    -DPMKM_THREAD_SAFETY_ANALYSIS=ON \
    -DPMKM_BUILD_BENCHMARKS=OFF \
    -DPMKM_BUILD_EXAMPLES=OFF > /dev/null
  if cmake --build build-tsa -j "$(nproc)"; then
    echo "thread-safety build: clean"
  else
    echo "FAIL: thread-safety findings (see build output above)" >&2
    failures=$((failures + 1))
  fi
else
  skip_or_fail "${CLANGXX} not found; cannot run -Wthread-safety build"
fi

# ---------------------------------------------------------------------------
echo "==> stage 3/6: clang-tidy gate"
if command -v "${CLANG_TIDY}" > /dev/null; then
  # Prefer the clang compile database from stage 2; otherwise export one
  # from the default (gcc) configuration — clang-tidy only needs the
  # flags, not the compiler. Either way the database is REGENERATED now:
  # reusing a stale compile_commands.json (sources added or removed since
  # the last configure) makes clang-tidy silently analyze the wrong file
  # set, which is worse than failing.
  compdb_dir="build-tsa"
  if [[ ! -f "${compdb_dir}/CMakeCache.txt" ]]; then
    compdb_dir="build"
  fi
  cmake -B "${compdb_dir}" -S . \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null

  mapfile -t tidy_sources < <(find src tools bench/lib -name '*.cc' | sort)

  # Stale-database guard: every source we are about to lint must appear in
  # the regenerated database; a miss means the build system does not know
  # the file (e.g. not listed in CMakeLists) and MUST fail, not skip —
  # otherwise new files ride past the gate unanalyzed.
  compdb_stale=0
  for tidy_src in "${tidy_sources[@]}"; do
    if ! grep -q "${tidy_src}" "${compdb_dir}/compile_commands.json"; then
      echo "FAIL: ${tidy_src} missing from" \
           "${compdb_dir}/compile_commands.json (stale compilation" \
           "database — is the file registered in CMakeLists.txt?)" >&2
      compdb_stale=1
    fi
  done
  if [[ "${compdb_stale}" == "1" ]]; then
    failures=$((failures + 1))
  fi

  # Baseline-free: every finding fails. Suppress at the site with a
  # NOLINT(check-name) plus a justification comment, never via a
  # baseline file — a baseline hides findings from review; a NOLINT is
  # itself reviewable code.
  tidy_findings="$(
    "${CLANG_TIDY}" -p "${compdb_dir}" --quiet "${tidy_sources[@]}" \
        2> /dev/null |
      grep -E '^[^ ]+:[0-9]+:[0-9]+: (warning|error):' |
      sed -E "s|^$(pwd)/||" |
      sort -u || true
  )"

  if [[ -n "${tidy_findings}" ]]; then
    echo "FAIL: clang-tidy findings (fix, or NOLINT at the site with a" \
         "justification — the gate is baseline-free):" >&2
    echo "${tidy_findings}" | sed 's/^/  /' >&2
    failures=$((failures + 1))
  else
    echo "clang-tidy: clean"
  fi
else
  skip_or_fail "${CLANG_TIDY} not found; cannot run clang-tidy gate"
fi

# ---------------------------------------------------------------------------
echo "==> stage 4/6: call-graph gates (pmkm_ctxcheck + pmkm_detcheck)"
if command -v python3 > /dev/null; then
  # Reuse the compilation database stage 2/3 just regenerated (build-tsa
  # preferred, then build); when neither Clang stage ran, export one here.
  # The driver itself fails (exit 65) on a database older than any
  # source rather than analyzing the wrong file set.
  #
  # tools/pmkm_callgraph.py reads the compdb and parses every source
  # ONCE, then runs both analyzers over the shared program model — the
  # combined stage costs barely more than the old ctxcheck-only stage
  # (~1.4s vs ~1.25s wall for the whole tree) instead of doubling it.
  if [[ ! -f build-tsa/compile_commands.json ]]; then
    cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
  fi
  if python3 tools/pmkm_callgraph.py; then
    echo "call-graph gates: clean"
  else
    failures=$((failures + 1))
  fi
else
  skip_or_fail "python3 not found; cannot run the call-graph gates"
fi

# ---------------------------------------------------------------------------
echo "==> stage 5/6: schedcheck (lock-order witness + schedule sweeps)"
# Compiler-agnostic: the hooks are plain C++. PR-gate budget is modest
# (200 seeds per sweep); the nightly workflow raises PMKM_SCHEDCHECK_SEEDS.
schedcheck_targets=(lock_graph_test scheduler_test seeded_bugs_test
                    queue_sweep_test executor_sweep_test)
if cmake -B build-schedcheck -S . \
     -DCMAKE_BUILD_TYPE=RelWithDebInfo \
     -DPMKM_SCHEDCHECK=ON > /dev/null &&
   cmake --build build-schedcheck -j "$(nproc)" \
     --target "${schedcheck_targets[@]}" > /dev/null; then
  if (cd build-schedcheck &&
      PMKM_SCHEDCHECK_SEEDS="${PMKM_SCHEDCHECK_SEEDS:-200}" \
        ctest -L schedcheck --output-on-failure); then
    echo "schedcheck: clean"
  else
    echo "FAIL: schedcheck suites (replay the printed seed with" \
         "PMKM_SCHEDCHECK_SEED=<seed>)" >&2
    failures=$((failures + 1))
  fi
else
  echo "FAIL: schedcheck build (PMKM_SCHEDCHECK=ON)" >&2
  failures=$((failures + 1))
fi

# ---------------------------------------------------------------------------
echo "==> stage 6/6: link check (every global function in src/ is linked by a shipped binary)"
if scripts/run_link_check.sh; then
  echo "link check: clean"
else
  failures=$((failures + 1))
fi

# ---------------------------------------------------------------------------
echo
if [[ "${failures}" -gt 0 ]]; then
  echo "static analysis: FAILED (${failures} stage(s))"
  exit 1
fi
if [[ "${skipped}" -gt 0 ]]; then
  echo "static analysis: OK (${skipped} stage(s) skipped — install" \
       "clang/clang-tidy or set PMKM_SA_STRICT=1 to require them)"
else
  echo "static analysis: OK (all stages)"
fi
