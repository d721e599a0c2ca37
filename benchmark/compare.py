#!/usr/bin/env python3
"""Noise-aware comparison of benchmark results.

  python3 benchmark/compare.py BASE.json... -- CHANGE.json...

Each file is a results file written by run.py and counts as one run; the
i-th base file pairs with the i-th change file, so run the two commits
alternately with the same seeds. For every workload x end-to-end metric the
table shows each side's median and quartiles, the pairs the change won,
and a verdict against the bounds in BENCHMARK.json:

  improved    at least 10 pairs, the change wins 9/10 of them (ties count
              for neither) and the medians differ by more than the base
              runs' quartile spread
  regressed   the change's median is worse than the base median by more
              than the bound
  unresolved  the base runs' quartile spread is wider than the bound and
              not every change run beats every base run
  unchanged   otherwise

Below the table, each workload's quality.sse_frac is compared pair by pair
(it has no bound). Exits 1 if any row regressed, 2 on unreadable input.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
QUALITY = "quality.sse_frac"


def values(runs, workload, section, name):
    """One workload's `name` from every run that has it, in run order."""
    return [r[workload][section][name]["value"] for r in runs
            if workload in r and name in r[workload][section]]


def quartiles(samples):
    if len(samples) < 2:
        return samples[0], samples[0]
    q = statistics.quantiles(samples, n=4)
    return q[0], q[2]


def summary(median, q):
    return f"{median:.6g} [{q[0]:.4g}, {q[1]:.4g}]"


def verdict(base, change, higher_is_better, bound):
    sign = 1.0 if higher_is_better else -1.0
    base_med = statistics.median(base)
    change_med = statistics.median(change)
    q1, q3 = quartiles(base)
    scale = abs(base_med) or 1.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    worse_by = sign * (base_med - change_med) / scale
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and sign * (change_med - base_med) > q3 - q1):
        result = "improved"
    elif worse_by > bound:
        result = "regressed"
    elif (q3 - q1) / scale > bound and not all(
            sign * (c - b) > 0 for b in base for c in change):
        result = "unresolved"
    else:
        result = "unchanged"
    return result, wins, len(pairs)


def load(paths):
    runs = []
    for path in paths:
        try:
            runs.append(json.loads(Path(path).read_text())["workloads"])
        except (OSError, ValueError, KeyError) as err:
            sys.stderr.write(f"compare: cannot read {path}: {err}\n")
            sys.exit(2)
    return runs


def main(argv):
    if "--" not in argv or argv.index("--") == 0 or argv[-1] == "--":
        sys.stderr.write(__doc__)
        return 2
    split = argv.index("--")
    base_runs, change_runs = load(argv[:split]), load(argv[split + 1:])
    spec = json.loads(SPEC.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':16} {'metric':14} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'delta':>8} {'won':>7} verdict")
    regressed = False
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base, change = (values(runs, workload, "end_to_end", name)
                            for runs in (base_runs, change_runs))
            if not base or not change:
                continue
            result, wins, pairs = verdict(base, change,
                                          metric["better"] == "higher",
                                          metric["bound"])
            regressed = regressed or result == "regressed"
            base_med, change_med = (statistics.median(base),
                                    statistics.median(change))
            delta = (change_med - base_med) / (abs(base_med) or 1.0)
            print(f"{workload:16} {name:14} "
                  f"{summary(base_med, quartiles(base)):>34} "
                  f"{summary(change_med, quartiles(change)):>34} "
                  f"{delta:>+8.1%} {wins:>3}/{pairs:<3} {result}")
    # The answer's quality beside its speed. It is exact for a seed but
    # moves between seeds, so only seed-paired runs say anything about it.
    for workload in workloads:
        pairs = list(zip(*(values(runs, workload, "layers", QUALITY)
                           for runs in (base_runs, change_runs))))
        if pairs:
            worse = sum(1 for b, c in pairs if c > b)
            better = sum(1 for b, c in pairs if c < b)
            print(f"{workload:16} {QUALITY} worse in {worse}/{len(pairs)} "
                  f"pairs, better in {better}/{len(pairs)}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
