#!/usr/bin/env python3
"""The repository benchmark (see benchmark/README.md).

Builds pmkm_serve and the pmkm_bench harness from this checkout's sources,
generates the inputs from --seed, runs each workload in a fresh process,
checks its outputs, prints one "workload metric value unit" line per metric
and, as the last line, one JSON object:

  {"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones BENCHMARK.json lists,
with --trace 1 (or --traced) the per-layer ones. A results file with
medians, quartiles, per-layer numbers and provenance is written under
build-bench/results/ for benchmark/compare.py.

  python3 benchmark/run.py --workload paper_stream --seed 3 --trace 0
  python3 benchmark/run.py --seed=4 --traced        # every workload
  python3 benchmark/run.py --smoke                  # the ctest benchmark.smoke
"""

import argparse
import ctypes
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
RAMP_LIMIT = 1.25  # first timed repetition / median above this flags a set
STEAL_LIMIT = 0.02  # host steal share above this flags a set
LATE_LIMIT_MS = 5.0  # open-loop generator lateness (p99) above this flags it
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    sys.stderr.write(f"benchmark: {message}\n")
    sys.exit(code)


def die_with_parent():
    # PR_SET_PDEATHSIG: the child cannot outlive this script.
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)


def quartiles(samples):
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    return tuple(statistics.quantiles(samples, n=4))


def build(build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    commands = []
    if not (build_dir / "CMakeCache.txt").exists():
        commands.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    commands.append(["cmake", "--build", str(build_dir), "-j",
                     str(min(4, os.cpu_count() or 1)), "--target",
                     "pmkm_bench", "pmkm_serve_tool"])
    log = build_dir / "build.log"
    with open(log, "w") as out:
        for command in commands:
            if subprocess.run(command, stdout=out,
                              stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail("build failed; full log in " + str(log))


def git(*args):
    try:
        return subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def provenance(bench, args):
    info = json.loads(subprocess.run([str(bench), "info"], check=True,
                                     capture_output=True, text=True).stdout)
    commit = git("rev-parse", "HEAD")
    return {
        "commit": commit or "unknown",
        "dirty": bool(git("status", "--porcelain")) if commit else None,
        **info,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "warmup": not args.smoke,
        "smoke": args.smoke,
        "traced": bool(args.trace),
        "date": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def run_workload(bench, build_dir, name, args):
    """Generates the inputs and runs one workload; returns its result."""
    work_root = build_dir / "work"
    work = work_root / (f"smoke-{args.seed}" if args.smoke else str(args.seed))
    if work_root.exists():  # the input cache holds one seed
        for old in work_root.iterdir():
            if old != work:
                shutil.rmtree(old)
    common = [f"--workload={name}", f"--root={work}"]
    if args.smoke:
        common.append("--smoke")
    subprocess.run([str(bench), "gen", f"--seed={args.seed}", *common],
                   check=True, preexec_fn=die_with_parent)
    # Deleting and writing inputs queues journal commits (and block
    # discards, on a disk mounted with `discard`); finish them here rather
    # than inside the measurement.
    os.sync()
    out = build_dir / "out" / name
    shutil.rmtree(out, ignore_errors=True)
    proc = subprocess.run(
        [str(bench), "run", *common, f"--out={out}",
         f"--seconds={args.seconds}", f"--trace={args.trace}",
         f"--serve_bin={build_dir / 'tools' / 'pmkm_serve'}"],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        preexec_fn=die_with_parent)
    if proc.returncode != 0:
        fail(f"{name}: pmkm_bench exited with {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    end_to_end = {}
    for metric, m in raw["end_to_end"].items():
        q1, _, q3 = quartiles(m["samples"])
        end_to_end[metric] = {"value": statistics.median(m["samples"]),
                              "unit": m["unit"], "q1": q1, "q3": q3,
                              "n": len(m["samples"])}
    flags = []
    ratio = raw["info"]["first_rep_ratio"]
    if ratio > RAMP_LIMIT:
        flags.append(f"ramp: first timed repetition took {ratio:.2f}x the "
                     "median")
    steal = raw["info"]["host_steal_frac"]
    if steal > STEAL_LIMIT:
        flags.append(f"steal: other guests took {steal:.1%} of the host's "
                     "CPU time while measuring")
    late = raw["info"].get("late_ms_p99", 0.0)
    if late > LATE_LIMIT_MS:
        flags.append(f"late: the open-loop generator ran {late:.1f} ms late "
                     "at p99")
    for flag in flags:
        sys.stderr.write(f"benchmark: {name}: noisy set, {flag}\n")
    return {
        "correct": not raw["failures"] and bool(raw["checks"]),
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "checks": raw["checks"],
        "failures": raw["failures"],
        "noise_flags": flags,
        "info": raw["info"],
        "end_to_end": end_to_end,
        "layers": raw["layers"],
    }


def listed_metrics(spec, result, traced):
    """The metrics BENCHMARK.json asks for, checked against the result."""
    source = result["layers"] if traced else result["end_to_end"]
    metrics = {}
    for m in spec["per_layer" if traced else "end_to_end"]:
        got = source.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} missing or not in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics


def run_set(args, build_dir):
    """Runs the selected workloads; returns (results document, final line)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bench = build_dir / "pmkm_bench"
    doc = {"provenance": provenance(bench, args), "workloads": {}}
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_workload(bench, build_dir, name, args)
        doc["workloads"][name] = result
        for metric, m in result["end_to_end"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
        for metric, m in result["layers"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
        for failure in result["failures"]:
            sys.stderr.write(f"benchmark: {name}: check failed: {failure}\n")
        metrics = listed_metrics(spec, result, args.trace)
        if len(names) > 1:
            metrics = {f"{name}.{k}": v for k, v in metrics.items()}
        final["metrics"].update(metrics)
        final["correct"] = final["correct"] and result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
    return doc, final


def write_results(doc, args, build_dir):
    label = "+".join(args.workload) if args.workload else "all"
    path = (build_dir / "results" /
            f"{label}-seed{args.seed}{'-traced' if args.trace else ''}"
            f"{'-smoke' if args.smoke else ''}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def smoke(args, build_dir):
    """Every workload small, untraced then traced, and the contract checks.

    run_set already fails when a metric BENCHMARK.json lists is missing or
    has another unit; this adds the name rule, the output checks and
    compare.py reading both results files.
    """
    started = time.time()
    paths = []
    for trace in (0, 1):
        args.trace = trace
        doc, final = run_set(args, build_dir)
        paths.append(write_results(doc, args, build_dir))
        for name, result in doc["workloads"].items():
            if not result["correct"] or not result["checks"]:
                fail(f"smoke: {name}: output checks failed or did not run")
            for metric in [*result["end_to_end"], *result["layers"]]:
                if not NAME_RE.match(metric):
                    fail(f"smoke: bad metric name {metric!r}")
    for path in paths:
        compare = subprocess.run([sys.executable, str(HERE / "compare.py"),
                                  str(path), "--", str(path)],
                                 capture_output=True, text=True)
        if compare.returncode != 0:
            sys.stderr.write(compare.stdout + compare.stderr)
            fail(f"smoke: compare.py could not read {path}")
    print(f"smoke ok in {time.time() - started:.1f} s")
    return final


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="timed length per workload (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at about 2%% size, untraced "
                             "and traced, with the contract checks")
    parser.add_argument("--build-dir", default=str(ROOT / "build-bench"))
    args = parser.parse_args()
    if args.traced:
        args.trace = 1

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no pmkm sources next to {HERE}; the benchmark builds the "
             "repository it is part of", code=2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    for name in args.workload or []:
        if name not in known:
            fail(f"unknown workload {name!r} (have {', '.join(known)})", 2)
    if args.seconds is None:
        args.seconds = 0.3 if args.smoke else float(spec["run_seconds"])

    build_dir = Path(args.build_dir).resolve()
    build(build_dir)
    if args.smoke:
        final = smoke(args, build_dir)
    else:
        doc, final = run_set(args, build_dir)
        write_results(doc, args, build_dir)
    print(json.dumps(final))
    sys.exit(0 if final["correct"] else 1)


if __name__ == "__main__":
    main()
