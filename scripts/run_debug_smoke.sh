#!/usr/bin/env bash
# Debug-server smoke test (DESIGN.md §14): start a real pmkm_cluster run
# with the introspection server on an ephemeral port, curl every endpoint
# while the run is live, and assert the responses are well-formed — 200s
# with Prometheus text / JSON bodies, 404 for unknown paths, and a second
# /metrics scrape whose cumulative series did not move backwards.
#
# Usage: scripts/run_debug_smoke.sh [--cells N] [--points N]
#   --cells N   bucket cells in the generated input (default 6)
#   --points N  points per cell (default 20000 — enough to scrape mid-run)

set -euo pipefail
cd "$(dirname "$0")/.."

CELLS=6
POINTS=20000

while [[ $# -gt 0 ]]; do
  case "$1" in
    --cells)  CELLS="$2"; shift 2 ;;
    --points) POINTS="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

if [[ ! -x build/tools/pmkm_genbuckets || ! -x build/tools/pmkm_cluster ]]; then
  cmake -B build -S .
  cmake --build build -j --target pmkm_genbuckets pmkm_cluster_tool
fi
GENBUCKETS=build/tools/pmkm_genbuckets
CLUSTER=build/tools/pmkm_cluster

WORK="$(mktemp -d "${TMPDIR:-/tmp}/pmkm_debug_smoke.XXXXXX")"
CLUSTER_PID=""
cleanup() {
  [[ -n "${CLUSTER_PID}" ]] && kill "${CLUSTER_PID}" 2> /dev/null || true
  rm -rf "${WORK}"
}
trap cleanup EXIT

echo "== debug smoke: ${CELLS} cells x ${POINTS} points =="

"${GENBUCKETS}" --out="${WORK}/buckets" --mode=cells \
  --cells="${CELLS}" --n="${POINTS}" > /dev/null

# Ephemeral port; the linger keeps the server up after the run finishes so
# slow scrapes cannot race process exit.
"${CLUSTER}" --k=8 --restarts=8 --quiet \
  --debug_port=0 --debug_linger_ms=30000 --run_id=smoke0001 \
  --out="${WORK}/models" "${WORK}"/buckets/*.pmkb \
  > "${WORK}/cluster.log" 2>&1 &
CLUSTER_PID=$!

# Wait for the listen line and extract the port.
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's#^debug server listening on http://127.0.0.1:\([0-9]*\)/#\1#p' \
    "${WORK}/cluster.log" | head -n 1)"
  [[ -n "${PORT}" ]] && break
  kill -0 "${CLUSTER_PID}" 2> /dev/null || {
    echo "FAIL: pmkm_cluster exited before serving"; cat "${WORK}/cluster.log"
    exit 1
  }
  sleep 0.1
done
[[ -n "${PORT}" ]] || { echo "FAIL: no listen line"; exit 1; }
BASE="http://127.0.0.1:${PORT}"
echo "-- serving on ${BASE}"

fetch() { # path -> body on stdout; asserts HTTP status
  local path="$1" want="$2"
  local code
  code="$(curl -s -o "${WORK}/body" -w '%{http_code}' "${BASE}${path}")"
  if [[ "${code}" != "${want}" ]]; then
    echo "FAIL: GET ${path} returned ${code}, want ${want}" >&2
    exit 1
  fi
  cat "${WORK}/body"
}

expect() { # label haystack_file needle
  local label="$1" file="$2" needle="$3"
  grep -q "${needle}" "${file}" || {
    echo "FAIL: ${label}: missing '${needle}'" >&2
    cat "${file}" >&2
    exit 1
  }
  echo "ok: ${label}"
}

fetch /healthz 200 > "${WORK}/healthz"
expect "/healthz" "${WORK}/healthz" "ok"

fetch /metrics 200 > "${WORK}/metrics1"
expect "/metrics HELP"     "${WORK}/metrics1" "^# HELP "
expect "/metrics TYPE"     "${WORK}/metrics1" "^# TYPE "
expect "/metrics run_info" "${WORK}/metrics1" 'pmkm_run_info{run_id="smoke0001"} 1'

fetch /statusz 200 > "${WORK}/statusz"
expect "/statusz" "${WORK}/statusz" "run: smoke0001"

fetch /runz 200 > "${WORK}/runz"
python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "${WORK}/runz" \
  || { echo "FAIL: /runz is not valid JSON" >&2; exit 1; }
echo "ok: /runz parses as JSON"

fetch /tracez 200 > /dev/null && echo "ok: /tracez"
fetch /pprofz 200 > /dev/null && echo "ok: /pprofz"
fetch /nosuch 404 > /dev/null && echo "ok: unknown path is 404"

# Second scrape: cumulative series never regress between scrapes.
fetch /metrics 200 > "${WORK}/metrics2"
python3 - "${WORK}/metrics1" "${WORK}/metrics2" << 'EOF'
import sys

def samples(path):
    out = {}
    gauges = set()  # current values (e.g. queue depth): free to fall
    for line in open(path):
        if line.startswith("# TYPE ") and line.split()[3:] == ["gauge"]:
            gauges.add(line.split()[2])
        if line.startswith("#") or not line.strip():
            continue
        name, _, value = line.rpartition(" ")
        if name in gauges:
            continue
        if name.endswith("_count") or name.endswith("_sum") or \
           (("{" not in name) and not name.endswith("_max")):
            try:
                out[name] = float(value)
            except ValueError:
                pass
    return out

first, second = samples(sys.argv[1]), samples(sys.argv[2])
bad = [n for n, v in first.items() if n in second and second[n] < v]
if bad:
    sys.exit("FAIL: regressed between scrapes: %s" % ", ".join(sorted(bad)))
print("ok: %d cumulative series monotonic across scrapes" % len(first))
EOF

kill "${CLUSTER_PID}" 2> /dev/null || true
wait "${CLUSTER_PID}" 2> /dev/null || true
CLUSTER_PID=""

echo "== debug smoke passed =="
