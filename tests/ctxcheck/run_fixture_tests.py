#!/usr/bin/env python3
"""Golden-violation suite for tools/pmkm_ctxcheck.py (DESIGN.md §16).

Runs the analyzer in fixture mode (--files, no compdb gate) over each
file in tests/ctxcheck/fixtures/ and asserts, per fixture:

  - the exit code (65 for the deliberate violations, 0 for the clean
    twins — the sysexits contract shared with pmkm_lint/pmkm_inspect),
  - the rule tag of every expected finding, and
  - the full witness chain root -> ... -> violating operation, line by
    line, because the chain IS the product: a finding without the path
    that reaches it is not actionable.

Registered as ctest `ctxcheck.fixtures` (label `lint`). Run directly:

  tests/ctxcheck/run_fixture_tests.py [--root REPO]
"""

import argparse
import os
import subprocess
import sys

FIXDIR = os.path.join("tests", "ctxcheck", "fixtures")

# fixture basename -> (expected exit, [required output substrings]).
# Chains assert function names, not line numbers, so reformatting a
# fixture comment does not break the suite; the arrow line pins the leaf.
EXPECTATIONS = {
    "signal_safe_violation.cc": (65, [
        "[signal-safe] allocating/throwing call in signal context",
        "ctxfix::OnProfileSignal",
        "ctxfix::GrowScratch",
        "-> malloc",
    ]),
    "signal_safe_clean.cc": (0, ["0 finding(s)"]),
    "no_block_under_lock_violation.cc": (65, [
        "[no-block-under-lock] `write` blocks while the caller holds "
        "a pmkm::Mutex",
        "[no-block-under-lock] `fsync` blocks while the caller holds "
        "a pmkm::Mutex",
        "ctxfix::Journal::Append",
        "ctxfix::Journal::WriteRecord",
        "-> write",
        "-> fsync",
    ]),
    "no_block_under_lock_clean.cc": (0, ["0 finding(s)"]),
    "wait_free_violation.cc": (65, [
        "[wait-free] allocating/throwing call on a wait-free path",
        "ctxfix::SampleRecorder::Record",
        "-> push_back",
    ]),
    "wait_free_clean.cc": (0, ["0 finding(s)"]),
    "bounded_handler_violation.cc": (65, [
        "[bounded-handler] unbounded CondVar::Wait in a bounded "
        "handler; use WaitFor",
        "ctxfix::SessionServer::HandleConnection",
        "ctxfix::SessionServer::AwaitWork",
        "ctxfix::JobTable::AwaitForever",
        "ctxfix::SessionHost::HandleConnection",
        "-> Wait",
    ]),
    "bounded_handler_clean.cc": (0, ["0 finding(s)"]),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))),
        help="repository root (default: two levels above this script)")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    analyzer = os.path.join(root, "tools", "pmkm_ctxcheck.py")

    fixtures = sorted(os.listdir(os.path.join(root, FIXDIR)))
    missing = set(EXPECTATIONS) - set(fixtures)
    extra = [f for f in fixtures if f.endswith(".cc")
             and f not in EXPECTATIONS]
    if missing or extra:
        for f in sorted(missing):
            print(f"FAIL: fixture listed in EXPECTATIONS but absent: {f}")
        for f in extra:
            print(f"FAIL: fixture on disk without an expectation: {f}")
        return 1

    failures = 0
    for fixture, (want_exit, want_substrings) in sorted(
            EXPECTATIONS.items()):
        path = os.path.join(root, FIXDIR, fixture)
        proc = subprocess.run(
            [sys.executable, analyzer, "--root", root, "--files", path],
            capture_output=True, text=True)
        out = proc.stdout + proc.stderr
        problems = []
        if proc.returncode != want_exit:
            problems.append(
                f"exit {proc.returncode}, want {want_exit}")
        for needle in want_substrings:
            if needle not in out:
                problems.append(f"missing output: {needle!r}")
        if problems:
            failures += 1
            print(f"FAIL {fixture}")
            for p in problems:
                print(f"  {p}")
            print("  --- analyzer output ---")
            for line in out.splitlines():
                print(f"  {line}")
        else:
            print(f"PASS {fixture} (exit {proc.returncode})")

    total = len(EXPECTATIONS)
    print(f"ctxcheck fixtures: {total - failures}/{total} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
