#!/usr/bin/env python3
"""Golden-violation suite for tools/pmkm_detcheck.py (DESIGN.md §17).

Runs the analyzer in fixture mode (--files, no compdb gate) over each
file in tests/detcheck/fixtures/ and asserts, per fixture:

  - the exit code (65 for the deliberate violations, 0 for the clean
    twins — the sysexits contract shared with pmkm_ctxcheck/pmkm_lint),
  - the rule tag of every expected finding, and
  - the full witness chain root -> ... -> violating operation, because
    the chain IS the product: a finding without the path that reaches
    it is not actionable.

The fp-flags pair (rule D4) is special: the violation lives in the
compile command, not the source, so this runner synthesizes a one-entry
compile_commands.json per fixture — value-unsafe flags and no
-ffp-contract=off for the positive, a compliant command for the clean
twin — and passes it via --compdb alongside --files.

Registered as ctest `detcheck.fixtures` (label `lint`). Run directly:

  tests/detcheck/run_fixture_tests.py [--root REPO]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

FIXDIR = os.path.join("tests", "detcheck", "fixtures")

# fixture basename -> (expected exit, [required output substrings]).
# Chains assert function names, not line numbers, so reformatting a
# fixture comment does not break the suite; the arrow line pins the leaf.
EXPECTATIONS = {
    "unordered_iter_violation.cc": (65, [
        "[unordered-iter] iterates hash-ordered unordered_map `table_` "
        "on an output path",
        "detfix::TableEncoder::EncodeTable",
        "-> range-for over table_",
    ]),
    "unordered_iter_clean.cc": (0, ["0 finding(s)"]),
    "nondet_source_violation.cc": (65, [
        "[nondet-source] calls `time` on an output path (wall clock)",
        "[nondet-source] declares `mt19937` on an output path",
        "detfix::EncodeSnapshot",
        "detfix::Stamp",
        "-> time",
        "-> declare mt19937",
    ]),
    "nondet_source_clean.cc": (0, ["0 finding(s)"]),
    "ptr_order_violation.cc": (65, [
        "[ptr-order] iterates pointer-keyed map `index_` on an "
        "output path",
        "[ptr-order] casts a pointer to uintptr_t on an output path",
        "detfix::PointerIndexEncoder::EncodeIndex",
        "-> range-for over index_",
        "-> reinterpret_cast<uintptr_t>",
    ]),
    "ptr_order_clean.cc": (0, ["0 finding(s)"]),
    "fp_flags_violation.cc": (65, [
        "[fp-flags] deterministic TU compiled without -ffp-contract=off",
        "[fp-flags] deterministic TU compiled with -ffast-math",
        "detfix::ReduceBlock",
        "-> flags:ffp-contract",
        "-> flags:ffast-math",
    ]),
    "fp_flags_clean.cc": (0, ["0 finding(s)"]),
}

# Synthesized compile command per fp-flags fixture (D4 audits the
# command string, so no compiler ever actually runs it).
FP_COMMANDS = {
    "fp_flags_violation.cc":
        "g++ -std=c++20 -O2 -ffast-math -c {file} -o {obj}",
    "fp_flags_clean.cc":
        "g++ -std=c++20 -O2 -ffp-contract=off -c {file} -o {obj}",
}


def run_fixture(analyzer, root, fixture):
    """Runs the analyzer over one fixture, synthesizing a compdb for the
    fp-flags pair. Returns (exit_code, combined_output)."""
    rel = os.path.join(FIXDIR, fixture)
    cmd = [sys.executable, analyzer, "--root", root,
           "--files", os.path.join(root, rel)]
    if fixture in FP_COMMANDS:
        entry = {
            "directory": root,
            "file": rel,
            "command": FP_COMMANDS[fixture].format(
                file=rel, obj=fixture + ".o"),
        }
        with tempfile.NamedTemporaryFile(
                "w", suffix=".json", delete=False) as tmp:
            json.dump([entry], tmp)
            tmp_path = tmp.name
        cmd += ["--compdb", tmp_path]
    else:
        tmp_path = None
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    finally:
        if tmp_path is not None:
            os.unlink(tmp_path)
    return proc.returncode, proc.stdout + proc.stderr


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))),
        help="repository root (default: two levels above this script)")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    analyzer = os.path.join(root, "tools", "pmkm_detcheck.py")

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
        got_exit, out = run_fixture(analyzer, root, fixture)
        problems = []
        if got_exit != want_exit:
            problems.append(f"exit {got_exit}, want {want_exit}")
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
            print(f"PASS {fixture} (exit {got_exit})")

    total = len(EXPECTATIONS)
    print(f"detcheck fixtures: {total - failures}/{total} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
