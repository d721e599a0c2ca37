#!/usr/bin/env bash
# Serve smoke test (DESIGN.md §15): start a real pmkm_serve daemon on a
# unix socket and hold the ClusterService guarantees end to end:
#
#   1. concurrent pmkm_cluster --server jobs both succeed;
#   2. the daemon's models are byte-identical to an in-process run of the
#      same spec (cmp on every .pmkm file);
#   3. a remote job that names a --checkpoint_dir is rejected, and the
#      daemon creates nothing at that path;
#   3c. a remote job with --deadline_ms=1 fails with "deadline exceeded"
#      (exit 70), and the next ordinary job still returns models
#      byte-identical to the in-process run;
#   4. an independent protocol client (python, reimplementing the framing
#      from the spec in protocol.h) can handshake at v5, submit, cancel a
#      queued job and await its terminal state with one kAwaitJob — interop,
#      not just loopback — and a v4 client is refused after the hellos;
#   5. /statusz and /jobz respond on the daemon's debug server;
#   6. SIGTERM drains gracefully: a job accepted before the signal is
#      never lost — the client still collects its models and exits 0, and
#      the daemon exits 0 after "drained; exiting".
#
# Usage: scripts/run_serve_smoke.sh [--cells N] [--points N]

set -euo pipefail
cd "$(dirname "$0")/.."

CELLS=4
POINTS=8000

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

WORK="$(mktemp -d "${TMPDIR:-/tmp}/pmkm_serve_smoke.XXXXXX")"
SERVE_PID=""
cleanup() {
  [[ -n "${SERVE_PID}" ]] && kill "${SERVE_PID}" 2> /dev/null || true
  rm -rf "${WORK}"
}
trap cleanup EXIT

echo "== serve smoke: ${CELLS} cells x ${POINTS} points =="

"${GENBUCKETS}" --out="${WORK}/buckets" --mode=cells \
  --cells="${CELLS}" --n="${POINTS}" > /dev/null

ENGINE_FLAGS=(--k=6 --restarts=4 --kernel=scalar)

# -- 0. Reference: the same spec through the in-process backend.
"${CLUSTER}" "${ENGINE_FLAGS[@]}" --quiet \
  --out="${WORK}/local_models" "${WORK}"/buckets/*.pmkb > /dev/null

# -- 1. Daemon on a unix socket with the debug server on an ephemeral
# port. One worker, so the python client below can deterministically park
# a job in the queue (the fifo job pins the worker).
"${SERVE}" --endpoint="unix:${WORK}/serve.sock" --workers=1 \
  --debug_port=0 > "${WORK}/serve.log" 2>&1 &
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
PORT="$(sed -n 's#^debug server listening on http://127.0.0.1:\([0-9]*\)/#\1#p' \
  "${WORK}/serve.log" | head -n 1)"
[[ -n "${PORT}" ]] || { echo "FAIL: no debug server line"; exit 1; }
echo "-- daemon on ${ENDPOINT}, debug on :${PORT}"

# -- 2. Concurrent remote jobs from two clients.
"${CLUSTER}" "${ENGINE_FLAGS[@]}" --quiet \
  --server="${ENDPOINT}" --out="${WORK}/remote_a" \
  "${WORK}"/buckets/*.pmkb > "${WORK}/client_a.log" 2>&1 &
CLIENT_A=$!
"${CLUSTER}" "${ENGINE_FLAGS[@]}" --quiet \
  --server="${ENDPOINT}" --out="${WORK}/remote_b" \
  "${WORK}"/buckets/*.pmkb > "${WORK}/client_b.log" 2>&1 &
CLIENT_B=$!
wait "${CLIENT_A}" || { echo "FAIL: client A"; cat "${WORK}/client_a.log"; exit 1; }
wait "${CLIENT_B}" || { echo "FAIL: client B"; cat "${WORK}/client_b.log"; exit 1; }
echo "ok: two concurrent remote jobs succeeded"

# -- 3. Byte-identity: every model file from both remote runs matches the
# in-process reference exactly.
MODELS=0
for ref in "${WORK}"/local_models/*.pmkm; do
  base="$(basename "${ref}")"
  cmp -s "${ref}" "${WORK}/remote_a/${base}" || {
    echo "FAIL: remote_a/${base} differs from the in-process model"; exit 1
  }
  cmp -s "${ref}" "${WORK}/remote_b/${base}" || {
    echo "FAIL: remote_b/${base} differs from the in-process model"; exit 1
  }
  MODELS=$((MODELS + 1))
done
[[ "${MODELS}" -eq "${CELLS}" ]] || {
  echo "FAIL: expected ${CELLS} models, found ${MODELS}"; exit 1
}
echo "ok: ${MODELS} models byte-identical across local/remote backends"

# -- 3b. Where the daemon writes is its own business: a client-chosen
# checkpoint directory is refused before the job runs.
if "${CLUSTER}" "${ENGINE_FLAGS[@]}" --quiet \
    --server="${ENDPOINT}" --checkpoint_dir="${WORK}/evil" \
    --out="${WORK}/evil_models" "${WORK}"/buckets/*.pmkb \
    > "${WORK}/evil.log" 2>&1; then
  echo "FAIL: remote job with --checkpoint_dir was accepted"; exit 1
fi
[[ ! -e "${WORK}/evil" ]] || {
  echo "FAIL: the daemon created the client's checkpoint dir"; exit 1
}
echo "ok: remote --checkpoint_dir rejected, nothing written"

# -- 3c. The deadline bounds a job inside the daemon: a 1 ms deadline
# aborts the run, the client exits 70 (EX_SOFTWARE) with the wire's
# DeadlineExceeded, and the daemon serves the next job as before.
set +e
"${CLUSTER}" "${ENGINE_FLAGS[@]}" --quiet --deadline_ms=1 \
  --server="${ENDPOINT}" --out="${WORK}/deadline_models" \
  "${WORK}"/buckets/*.pmkb > "${WORK}/deadline.log" 2>&1
CODE=$?
set -e
[[ "${CODE}" -eq 70 ]] || {
  echo "FAIL: --deadline_ms=1 job exited ${CODE}, want 70"
  cat "${WORK}/deadline.log"; exit 1
}
grep -q "deadline exceeded" "${WORK}/deadline.log" || {
  echo "FAIL: no 'deadline exceeded' from the --deadline_ms=1 job"
  cat "${WORK}/deadline.log"; exit 1
}
"${CLUSTER}" "${ENGINE_FLAGS[@]}" --quiet \
  --server="${ENDPOINT}" --out="${WORK}/after_deadline" \
  "${WORK}"/buckets/*.pmkb > "${WORK}/after_deadline.log" 2>&1 || {
  echo "FAIL: the job after the deadline job"
  cat "${WORK}/after_deadline.log"; exit 1
}
for ref in "${WORK}"/local_models/*.pmkm; do
  base="$(basename "${ref}")"
  cmp -s "${ref}" "${WORK}/after_deadline/${base}" || {
    echo "FAIL: after_deadline/${base} differs from the in-process model"
    exit 1
  }
done
echo "ok: a 1 ms deadline fails its job (exit 70); the next job is byte-identical"

# -- 4. Interop + cancel: an independent client implementation speaks the
# protocol from its spec. A fifo "bucket" pins the single worker, so the
# next job deterministically stays queued until cancelled.
mkfifo "${WORK}/block.fifo"
BUCKET_ONE="$(ls "${WORK}"/buckets/*.pmkb | head -n 1)"
python3 - "${ENDPOINT#unix:}" "${WORK}/block.fifo" "${BUCKET_ONE}" << 'EOF'
import socket, struct, sys

sock_path, fifo_path, bucket_path = sys.argv[1:4]

def crc32c(data, seed=0):
    table = []
    for i in range(256):
        c = i
        for _ in range(8):
            c = (0x82F63B78 ^ (c >> 1)) if (c & 1) else (c >> 1)
        table.append(c)
    crc = (~seed) & 0xFFFFFFFF
    for b in data:
        crc = table[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return (~crc) & 0xFFFFFFFF

def frame(ftype, payload):
    crc = crc32c(payload, crc32c(struct.pack('<I', ftype)))
    return struct.pack('<II', len(payload), ftype) + payload + \
        struct.pack('<I', crc)

def s(x):
    b = x.encode()
    return struct.pack('<I', len(b)) + b

def job_spec(path):
    # v5 JobSpec (laid out as in v2-v4): paths, engine flags, run_id,
    # client (protocol.h). The two u64s after the policy are max_retries
    # and deadline_ms.
    spec = struct.pack('<I', 1) + s(path)
    spec += struct.pack('<QQQQ', 6, 4, 512, 0)   # k restarts memkib cores
    spec += s('failfast') + struct.pack('<QQ', 0, 0)
    spec += s('scalar') + s('') + struct.pack('<Q', 1) + b'\x01'
    spec += s('smoke-interop') + s('python-smoke')
    return spec

def recv_exact(sock, n):
    data = b''
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        assert chunk, 'server hung up after %d of %d bytes' % (len(data), n)
        data += chunk
    return data

conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
conn.connect(sock_path)
conn.sendall(struct.pack('<II', 0x534B4D50, 5))
magic, version = struct.unpack('<II', recv_exact(conn, 8))
assert magic == 0x534B4D50, hex(magic)
assert version == 5, version

buf = b''
def call(ftype, payload):
    global buf
    conn.sendall(frame(ftype, payload))
    while True:
        if len(buf) >= 8:
            length, rtype = struct.unpack('<II', buf[:8])
            if len(buf) >= 12 + length:
                wire, buf = buf[:12 + length], buf[12 + length:]
                payload_bytes = wire[8:8 + length]
                crc = struct.unpack('<I', wire[8 + length:])[0]
                assert crc == crc32c(payload_bytes,
                                     crc32c(struct.pack('<I', rtype)))
                assert rtype == 100, rtype  # kReply
                code = struct.unpack('<i', payload_bytes[:4])[0]
                mlen = struct.unpack('<I', payload_bytes[4:8])[0]
                msg = payload_bytes[8:8 + mlen].decode()
                return code, msg, payload_bytes[8 + mlen:]
        chunk = conn.recv(65536)
        assert chunk, 'server hung up'
        buf += chunk

code, msg, _ = call(1, b'')  # ping
assert code == 0, (code, msg)
print('ok: interop handshake + ping (protocol v%d)' % version)

code, msg, body = call(2, job_spec(fifo_path))  # pins the worker
assert code == 0, (code, msg)
blocker = struct.unpack('<Q', body[:8])[0]

code, msg, body = call(2, job_spec(bucket_path))  # stays queued
assert code == 0, (code, msg)
queued = struct.unpack('<Q', body[:8])[0]

code, msg, _ = call(5, struct.pack('<Q', queued))  # cancel
assert code == 0, (code, msg)
# kAwaitJob [u64 job_id][u64 wait_ms]: the terminal job answers in one
# reply (call() reads exactly one frame) carrying a JobInfo.
code, msg, body = call(7, struct.pack('<QQ', queued, 5000))
assert code == 0, (code, msg)
assert struct.unpack('<Q', body[:8])[0] == queued
state = struct.unpack('<I', body[8:12])[0]
assert state == 4, state  # kCancelled
status_code = struct.unpack('<i', body[12:16])[0]
assert status_code == 7, status_code  # Cancelled
print('ok: queued job %d cancelled; one kAwaitJob reply reads it' % queued)

code, msg, _ = call(5, struct.pack('<Q', 999999))  # unknown id
assert code == 4, (code, msg)  # NotFound survives the wire
print('ok: unknown-id cancel is NotFound across the wire')
conn.close()

# A v4 peer (its JobSpec slot is a stall timeout, not a deadline) is
# below the v5 floor: the daemon answers with its own hello, then closes
# without serving a frame.
old = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
old.settimeout(10)
old.connect(sock_path)
old.sendall(struct.pack('<II', 0x534B4D50, 4))
magic, version = struct.unpack('<II', recv_exact(old, 8))
assert (magic, version) == (0x534B4D50, 5), (hex(magic), version)
try:
    old.sendall(frame(1, b''))  # ping
except (BrokenPipeError, ConnectionResetError):
    pass
try:
    rest = old.recv(65536)
except ConnectionResetError:
    rest = b''
assert rest == b'', 'v4 peer was served: %r' % rest
old.close()
print('ok: v4 hello refused after the hello exchange')
EOF
# Release the pinned worker: pair with its blocked open, then EOF fails
# the fifo job (that job exists only to occupy the worker).
: > "${WORK}/block.fifo"

# -- 5. Debug-server scrape while the daemon is live.
fetch() {
  local path="$1" want="$2"
  local code
  code="$(curl -s -o "${WORK}/body" -w '%{http_code}' \
    "http://127.0.0.1:${PORT}${path}")"
  [[ "${code}" == "${want}" ]] || {
    echo "FAIL: GET ${path} returned ${code}, want ${want}" >&2; exit 1
  }
}
fetch /statusz 200
echo "ok: /statusz responds"
fetch /jobz 200
python3 - "${WORK}/body" << 'EOF'
import json, sys
jobs = json.load(open(sys.argv[1]))
states = [j["state"] for j in jobs["jobs"]]
assert "done" in states, states
assert "cancelled" in states, states
print("ok: /jobz lists %d jobs (done + cancelled present)" % len(states))
EOF

# -- 6. Graceful drain: SIGTERM while a freshly accepted job is in
# flight. The client must still collect its models and exit 0.
"${CLUSTER}" "${ENGINE_FLAGS[@]}" \
  --server="${ENDPOINT}" --out="${WORK}/drain_models" \
  "${WORK}"/buckets/*.pmkb > "${WORK}/drain.log" 2>&1 &
DRAIN_CLIENT=$!
for _ in $(seq 1 100); do
  grep -q "submitted" "${WORK}/drain.log" && break
  kill -0 "${DRAIN_CLIENT}" 2> /dev/null || break
  sleep 0.05
done
grep -q "submitted" "${WORK}/drain.log" || {
  echo "FAIL: drain job never submitted"; cat "${WORK}/drain.log"; exit 1
}
kill -TERM "${SERVE_PID}"
wait "${DRAIN_CLIENT}" || {
  echo "FAIL: client lost its accepted job to the drain"
  cat "${WORK}/drain.log"; exit 1
}
MODELS=$(ls "${WORK}"/drain_models/*.pmkm 2> /dev/null | wc -l)
[[ "${MODELS}" -eq "${CELLS}" ]] || {
  echo "FAIL: drained job wrote ${MODELS}/${CELLS} models"; exit 1
}
wait "${SERVE_PID}" || { echo "FAIL: daemon exited non-zero"; exit 1; }
SERVE_PID=""
grep -q "drained; exiting" "${WORK}/serve.log" || {
  echo "FAIL: daemon did not report a clean drain"
  cat "${WORK}/serve.log"; exit 1
}
echo "ok: SIGTERM drain lost no accepted job"

echo "== serve smoke passed =="
