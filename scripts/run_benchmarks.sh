#!/usr/bin/env bash
# Smoke-config benchmark run emitting machine-readable stream results:
#   BENCH_stream.json — { benchmark: {wall_s, t_partial_s, t_merge_s,
#                         min_mse}, ... }
# for the Fig. 6 time sweep (serial + 10-chunk partial/merge at the
# largest N, once with the scalar reference kernel and once with the
# auto-selected SIMD kernel), the operator-clone speed-up study, and the
# AssignBlock kernel micro-sweep (per-kernel throughput at D=6/16/64,
# k=40, without and with the second-best distance, plus the with-second
# rows at D=6, k=4 and k=8) with the pruned pass's bound test
# (PruneBlock, one 256-point tile at D=6, k=40). The "host" entry records
# the host ISA and the kernel auto resolved to; "kernel_assign_*" and
# "kernel_prune_*" entries record points/sec per kernel and the
# SIMD-over-scalar speedup. All harnesses merge into the same file, so it
# can be re-run incrementally.
#
# Usage: scripts/run_benchmarks.sh [output.json]   (default BENCH_stream.json)

set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_stream.json}"

if [[ ! -x build/bench/bench_fig6_time || ! -x build/bench/bench_speedup \
      || ! -x build/bench/bench_micro ]]; then
  cmake -B build -S .
  cmake --build build -j --target bench_fig6_time bench_speedup bench_micro
fi

rm -f "${OUT}"
build/bench/bench_fig6_time --quick --kernel=scalar --json_out="${OUT}"
build/bench/bench_fig6_time --quick --kernel=auto --json_out="${OUT}"
build/bench/bench_speedup --quick --json_out="${OUT}"

# Kernel throughput sweep: google-benchmark JSON, folded into the same
# results file as kernel_assign_[second_]d<D>[_k<K>]_<kernel> and
# kernel_prune_d<D>_<kernel> entries plus a speedup_vs_scalar ratio per
# shape.
MICRO_JSON="$(mktemp)"
build/bench/bench_micro \
  --benchmark_filter='^BM_(AssignBlock(Second)?|PruneBlock)/' \
  --benchmark_format=json > "${MICRO_JSON}"
python3 - "${MICRO_JSON}" "${OUT}" <<'EOF'
import json, sys
micro = json.load(open(sys.argv[1]))
out_path = sys.argv[2]
try:
    doc = json.load(open(out_path))
except (FileNotFoundError, ValueError):
    doc = {}
rates = {}
for b in micro.get("benchmarks", []):
    # name: BM_AssignBlock[Second]/<kernel>/d<dim>[/k<k>] (k=40 if absent)
    # or BM_PruneBlock/<kernel>/d<dim>
    parts = b["name"].split("/")
    if len(parts) not in (3, 4):
        continue
    shape = "prune_" if parts[0] == "BM_PruneBlock" else "assign_"
    shape += "second_" if parts[0] == "BM_AssignBlockSecond" else ""
    shape += parts[2] + ("_" + parts[3] if len(parts) == 4 else "")
    kernel = parts[1]
    rates[(shape, kernel)] = b.get("items_per_second", 0.0)
    doc[f"kernel_{shape}_{kernel}"] = {
        "points_per_s": b.get("items_per_second", 0.0),
        "real_time_ns": b.get("real_time", 0.0),
    }
for (shape, kernel), rate in sorted(rates.items()):
    scalar = rates.get((shape, "scalar"), 0.0)
    if kernel != "scalar" and scalar > 0.0:
        doc[f"kernel_{shape}_{kernel}"]["speedup_vs_scalar"] = rate / scalar
json.dump(doc, open(out_path, "w"), indent=2)
open(out_path, "a").write("\n")
EOF
rm -f "${MICRO_JSON}"

echo
echo "==== ${OUT} ===="
cat "${OUT}"
