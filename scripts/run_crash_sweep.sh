#!/usr/bin/env bash
# Randomized crash/recovery sweep (DESIGN.md §13): for each seed, a
# pmkm_cluster run over the same bucket set is killed — either
# at a deterministic fault point (SIGKILL raised inside the process via a
# PMKM_FAULTS crash fault) or by an external, timing-based `kill -9` — then
# resumed from its checkpoint until it exits cleanly. The sweep fails if any
# resumed run's model files are not bytewise identical to the uninterrupted
# reference run, or if recovery ever needs more than $MAX_RESUMES attempts.
#
# Usage: scripts/run_crash_sweep.sh [--seeds N] [--cells N] [--points N]
#                                   [--artifacts DIR]
#   --seeds N       number of randomized scenarios (default 100)
#   --cells N       bucket cells in the generated input (default 4)
#   --points N      points per cell (default 600)
#   --artifacts DIR where to copy the failing seed's checkpoint + models
#                   (default crash_sweep_artifacts)
# Environment: CRASH_SWEEP_SEEDS overrides --seeds (CI convenience).

set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS="${CRASH_SWEEP_SEEDS:-100}"
CELLS=4
POINTS=600
ARTIFACTS="crash_sweep_artifacts"
MAX_RESUMES=6

while [[ $# -gt 0 ]]; do
  case "$1" in
    --seeds)     SEEDS="$2"; shift 2 ;;
    --cells)     CELLS="$2"; shift 2 ;;
    --points)    POINTS="$2"; shift 2 ;;
    --artifacts) ARTIFACTS="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

if [[ ! -x build/tools/pmkm_genbuckets || ! -x build/tools/pmkm_cluster ]]; then
  cmake -B build -S .
  cmake --build build -j --target pmkm_genbuckets pmkm_cluster_tool \
    pmkm_inspect
fi
GENBUCKETS=build/tools/pmkm_genbuckets
CLUSTER=build/tools/pmkm_cluster
INSPECT=build/tools/pmkm_inspect

WORK="$(mktemp -d "${TMPDIR:-/tmp}/pmkm_crash_sweep.XXXXXX")"
trap 'rm -rf "${WORK}"' EXIT

echo "== crash sweep: ${SEEDS} seeds, ${CELLS} cells x ${POINTS} points =="

"${GENBUCKETS}" --out="${WORK}/buckets" --mode=cells \
  --cells="${CELLS}" --n="${POINTS}" > /dev/null
BUCKETS=("${WORK}"/buckets/*.pmkb)

cluster() { # out_dir [checkpoint_dir]
  local out="$1" ckpt="${2:-}"
  local args=(--k=6 --restarts=2 --quiet --out="${out}")
  [[ -n "${ckpt}" ]] && args+=(--checkpoint_dir="${ckpt}")
  "${CLUSTER}" "${args[@]}" "${BUCKETS[@]}" > /dev/null 2>&1
}

echo "-- reference run (uninterrupted, no checkpoint)"
cluster "${WORK}/ref"

# The crash sites a seed can land on. checkpoint.append and io.fsync die
# mid-journal; io.rename dies in the atomic model publish; journal.torn is
# an error fault that leaves half a frame on disk; "timed" is an external
# kill -9 at a random delay (the only non-deterministic scenario).
SITES=(checkpoint.append io.fsync io.rename journal.torn timed)

fail() { # seed ckpt out message
  local seed="$1" ckpt="$2" out="$3" message="$4"
  echo "FAIL seed=${seed}: ${message}" >&2
  mkdir -p "${ARTIFACTS}/seed_${seed}"
  cp -r "${ckpt}" "${ARTIFACTS}/seed_${seed}/checkpoint" 2>/dev/null || true
  [[ -d "${out}" ]] && cp -r "${out}" "${ARTIFACTS}/seed_${seed}/models"
  cp -r "${WORK}/ref" "${ARTIFACTS}/seed_${seed}/reference"
  "${INSPECT}" checkpoint "${ckpt}" \
    > "${ARTIFACTS}/seed_${seed}/journal.json" 2>&1 || true
  echo "   artifacts in ${ARTIFACTS}/seed_${seed}" >&2
  exit 1
}

failures=0
for ((seed = 1; seed <= SEEDS; ++seed)); do
  site="${SITES[$((seed % ${#SITES[@]}))]}"
  ckpt="${WORK}/ckpt_${seed}"
  out="${WORK}/models_${seed}"

  if [[ "${site}" == "timed" ]]; then
    # External kill: SIGKILL the run after a pseudo-random slice of its
    # expected runtime. The run may also finish first — that is fine, the
    # resume below is then a pure restore.
    delay_ms=$(( (seed * 7919) % 200 ))
    cluster "${out}" "${ckpt}" &
    pid=$!
    sleep "$(awk "BEGIN{print ${delay_ms}/1000}")"
    kill -9 "${pid}" 2>/dev/null || true
    wait "${pid}" 2>/dev/null || true
  else
    # In-process crash/error at a seed-derived hit of the fault site.
    nth=$(( (seed % 5) + 1 ))
    spec="${site}:n=${nth},crash=1"
    [[ "${site}" == "journal.torn" ]] && spec="${site}:n=${nth}"
    PMKM_FAULTS="${spec}" cluster "${out}" "${ckpt}" || true
  fi

  # However the run died, the journal must stay inspectable.
  "${INSPECT}" checkpoint "${ckpt}" > /dev/null 2>&1 \
    || fail "${seed}" "${ckpt}" "${out}" "journal not inspectable"

  recovered=0
  for ((attempt = 1; attempt <= MAX_RESUMES; ++attempt)); do
    if cluster "${out}" "${ckpt}"; then recovered=1; break; fi
  done
  [[ "${recovered}" == 1 ]] \
    || fail "${seed}" "${ckpt}" "${out}" \
            "did not recover within ${MAX_RESUMES} resumes (site ${site})"

  for ref_model in "${WORK}"/ref/*.pmkm; do
    model="${out}/$(basename "${ref_model}")"
    cmp -s "${ref_model}" "${model}" \
      || fail "${seed}" "${ckpt}" "${out}" \
              "$(basename "${ref_model}") differs from reference (site ${site})"
  done

  rm -rf "${ckpt}" "${out}"
  if (( seed % 25 == 0 )); then
    echo "-- ${seed}/${SEEDS} seeds OK"
  fi
done

echo "== crash sweep PASSED: ${SEEDS}/${SEEDS} seeds recovered bitwise =="
