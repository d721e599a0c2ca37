#!/usr/bin/env bash
# Determinism integration check (DESIGN.md §17): the dynamic complement
# to the static pmkm_detcheck gate. The same clustering spec must produce
# byte-identical .pmkm model files
#
#   1. across worker parallelism (--cores=1/2/4/16, one partial clone
#      per core, capped by a cell's chunk count: schedule and merge order
#      must not leak into output bytes; 2 is the serve-sized plan);
#   2. across two separate process invocations at the same core count
#      (catches ASLR/pointer-ordering leaks that rule ptr-order cannot
#      prove absent — addresses differ between processes, so any
#      address-keyed ordering diverges here);
#   3. through a pmkm_serve daemon (remote submission path: protocol
#      encode/decode and the service job machinery add no bytes of
#      nondeterminism on top of the engine);
#   4. across distance kernels (--kernel=auto vs the scalar reference:
#      the bound-pruned assignment takes a skipped point's distance from
#      the kernel's PruneBlock and a scanned point's from its
#      AssignBlock, so the two must agree bit for bit on every kernel).
#
# Every run is cmp'd file-by-file against the --cores=1 reference.
#
# Usage: scripts/run_determinism_check.sh [--cells N] [--points N]

set -euo pipefail
cd "$(dirname "$0")/.."

CELLS=4
POINTS=6000

while [[ $# -gt 0 ]]; do
  case "$1" in
    --cells)  CELLS="$2"; shift 2 ;;
    --points) POINTS="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

if [[ ! -x build/tools/pmkm_genbuckets || ! -x build/tools/pmkm_cluster \
      || ! -x build/tools/pmkm_serve ]]; then
  cmake -B build -S .
  cmake --build build -j --target pmkm_genbuckets pmkm_cluster_tool \
    pmkm_serve_tool
fi
GENBUCKETS=build/tools/pmkm_genbuckets
CLUSTER=build/tools/pmkm_cluster
SERVE=build/tools/pmkm_serve

WORK="$(mktemp -d "${TMPDIR:-/tmp}/pmkm_detcheck_run.XXXXXX")"
SERVE_PID=""
cleanup() {
  [[ -n "${SERVE_PID}" ]] && kill "${SERVE_PID}" 2> /dev/null || true
  rm -rf "${WORK}"
}
trap cleanup EXIT

echo "== determinism check: ${CELLS} cells x ${POINTS} points =="

"${GENBUCKETS}" --out="${WORK}/buckets" --mode=cells \
  --cells="${CELLS}" --n="${POINTS}" > /dev/null

# A 512 KiB budget cuts each cell into several chunks, so the core sweep
# really runs 1, 2 and 3 partial clones (clones never exceed a cell's
# chunk count).
ENGINE_FLAGS=(--k=6 --restarts=4 --memory-kib=512 --quiet)

run_local() {  # run_local <outdir> <cores> [kernel]
  "${CLUSTER}" --algo=stream "${ENGINE_FLAGS[@]}" --kernel="${3:-scalar}" \
    --cores="$2" --out="${WORK}/$1" "${WORK}"/buckets/*.pmkb > /dev/null
}

# Reference plus the parallelism sweep; cores4 twice from two distinct
# process invocations (ASLR re-randomizes between them); then the host's
# best kernel against the scalar reference.
run_local cores1 1
run_local cores2 2
run_local cores4 4
run_local cores4_again 4
run_local cores16 16
run_local kernel_auto 4 auto

# Remote: the same spec through a pmkm_serve daemon.
"${SERVE}" --endpoint="unix:${WORK}/serve.sock" --workers=2 \
  > "${WORK}/serve.log" 2>&1 &
SERVE_PID=$!
ENDPOINT=""
for _ in $(seq 1 100); do
  ENDPOINT="$(sed -n 's#^listening on ##p' "${WORK}/serve.log" | head -n 1)"
  [[ -n "${ENDPOINT}" ]] && break
  kill -0 "${SERVE_PID}" 2> /dev/null || {
    echo "FAIL: pmkm_serve exited before listening"; cat "${WORK}/serve.log"
    exit 1
  }
  sleep 0.1
done
[[ -n "${ENDPOINT}" ]] || { echo "FAIL: no listen line"; exit 1; }
"${CLUSTER}" --algo=stream "${ENGINE_FLAGS[@]}" --kernel=scalar --cores=4 \
  --server="${ENDPOINT}" --out="${WORK}/remote" \
  "${WORK}"/buckets/*.pmkb > "${WORK}/client.log" 2>&1 || {
  echo "FAIL: remote client"; cat "${WORK}/client.log"; exit 1
}
kill "${SERVE_PID}" 2> /dev/null || true
wait "${SERVE_PID}" 2> /dev/null || true
SERVE_PID=""

MODELS=0
for ref in "${WORK}"/cores1/*.pmkm; do
  base="$(basename "${ref}")"
  for variant in cores2 cores4 cores4_again cores16 kernel_auto remote; do
    cmp -s "${ref}" "${WORK}/${variant}/${base}" || {
      echo "FAIL: ${variant}/${base} differs from the --cores=1 reference"
      exit 1
    }
  done
  MODELS=$((MODELS + 1))
done
[[ "${MODELS}" -eq "${CELLS}" ]] || {
  echo "FAIL: expected ${CELLS} models, found ${MODELS}"; exit 1
}

echo "ok: ${MODELS} models byte-identical across cores=1/2/4/16, a second"
echo "    process invocation, --kernel=auto, and the pmkm_serve path"
echo "== determinism check passed =="
