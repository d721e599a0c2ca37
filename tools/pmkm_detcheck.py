#!/usr/bin/env python3
"""pmkm_detcheck: whole-program determinism analyzer (DESIGN.md §17).

Verifies that every byte on a model-output path is a pure function of
the input data and the algorithm config — the static guarantee behind
the repo's bitwise-model contracts: cross-ISA kernel parity (PR 3),
bitwise-identical resume (PR 6), byte-identical local-vs-remote models
(PR 8), and the content-addressed cache keys of ROADMAP item 1 (a
nondeterministic byte poisons a cache key or cross-node merge forever).

Roots are annotated PMKM_DETERMINISTIC in src/common/annotations.h:
the model codec (EncodeModel), the checkpoint cell-complete encoder,
the serve protocol encoders, and the kernel
AssignMasked/PruneBlock/AccumulateBlock hot path. Four rules are checked over
the shared call graph (tools/pmkm_callgraph.py, the engine pmkm_ctxcheck
also uses):

  unordered-iter  D1: no iteration over a hash-ordered container
                  (std::unordered_map/set and friends) on a path feeding
                  output bytes — iteration order depends on hashing,
                  insertion history, and libstdc++ version. Ordered
                  std::map/set iteration is fine.
  nondet-source   D2: no wall-clock or random source reachable from a
                  deterministic root: time()/gettimeofday()/
                  system_clock::now()/high_resolution_clock::now(),
                  rand()/drand48()/std::random_device/std::mt19937
                  declarations — outside the sanctioned seed plumbing in
                  common/rng.h (which derives streams from the run
                  seed). steady_clock is NOT flagged: it is monotonic,
                  feeds only latency metrics, and never lands in output
                  bytes (the checkpoint fsync timer is the canonical
                  example).
  ptr-order       D3: no pointer-valued ordering or hashing flowing into
                  output: iterating a container keyed on pointers
                  (even an ordered std::map<T*, ...> — ASLR reorders it
                  across processes), hashing pointers, or
                  reinterpret_cast of a pointer to uintptr_t on an
                  output path.
  fp-flags        D4: compile-flag audit, straight from
                  compile_commands.json, of every TU that defines a
                  function reachable from a deterministic root:
                  -ffp-contract=off must be present (otherwise FMA
                  contraction makes results vary by compiler/arch — the
                  kernels already pin it; this extends the pin to every
                  TU that computes output bytes), and the value-unsafe
                  flags -ffast-math/-funsafe-math-optimizations/-Ofast
                  must be absent.

Witness chains, `// pmkm-detcheck: allow(<rule>)` site suppression
(anywhere on the chain; there is no baseline, so any other finding
fails), and the sysexits contract are all inherited
from the shared engine — see tools/pmkm_ctxcheck.py for the long-form
description. Run tools/pmkm_callgraph.py directly to run both analyzers
over a single compdb read and source parse (the CI gate).

Exit codes: 0 clean, 64 usage, 65 findings/stale compdb, 66 missing
input, 74 I/O error.

Usage:
  tools/pmkm_detcheck.py [--root DIR] [--compdb PATH] [--files F...]
                         [--virtual {cha,conservative}]
                         [--dump-callgraph PATH] [--list-rules] [--stats]
"""

import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import pmkm_callgraph as cg  # noqa: E402

RULES = {
    "unordered-iter": "hash-ordered container iteration reachable from a "
                      "PMKM_DETERMINISTIC root",
    "nondet-source": "wall-clock/random source reachable from a "
                     "PMKM_DETERMINISTIC root",
    "ptr-order": "pointer-valued ordering/hashing reachable from a "
                 "PMKM_DETERMINISTIC root",
    "fp-flags": "deterministic TU compiled with value-unsafe FP flags "
                "or without -ffp-contract=off",
}

# D2 knowledge base. Raw PRNG calls: the C/POSIX families whose state is
# process-global or seeded from who-knows-where. std::shuffle with a
# seeded engine is fine; random_shuffle (implementation-defined source)
# is not.
RANDOM_CALLS = {
    "rand", "srand", "random", "srandom", "rand_r",
    "drand48", "erand48", "lrand48", "nrand48", "mrand48", "jrand48",
    "srand48", "seed48", "lcong48", "random_shuffle",
}
# Wall-clock reads. CLOCK_MONOTONIC users go through steady_clock (not
# listed); clock_gettime is listed because its common uses here would be
# CLOCK_REALTIME — an allow with justification covers monotonic uses.
TIME_CALLS = {
    "time", "gettimeofday", "clock_gettime", "timespec_get",
    "localtime", "localtime_r", "gmtime", "gmtime_r", "mktime",
    "strftime", "ctime", "asctime",
}
# Clock types whose now() is wall-adjacent. steady_clock is deliberately
# absent: monotonic, metrics-only (see module docstring).
WALL_CLOCKS = ("system_clock", "high_resolution_clock")

# The sanctioned seed plumbing: deterministic per-(seed, stream) engines
# derived from the run config. Ops inside it are exempt from D2 — it is
# the one place randomness is allowed to originate.
SANCTIONED_RNG_FILES = (os.path.join("src", "common", "rng.h"),)


def container_flags_for(prog, fn, expr):
    """Flags dict for a range-for expression, resolving through locals/
    params, fields of the enclosing class (walking up bases), and a
    leading object part (e.g. `state.partials` → field type of `state`,
    then that class's `partials` field). Returns None when the container
    kind is unknown or order-safe."""
    expr = expr.rstrip("()")
    parts = [p for p in re.split(r"\.|->", expr) if p]
    if not parts:
        return None
    head = parts[0].lstrip("*(").rstrip(")")
    if not re.match(r"^[A-Za-z_]\w*$", head):
        return None

    def field_flags(cls_qname, member):
        seen = set()
        stack = [cls_qname]
        while stack:
            cq = stack.pop()
            if cq in seen or cq not in prog.classes:
                continue
            seen.add(cq)
            got = prog.field_containers.get((cq, member))
            if got:
                return got
            for b in prog.classes[cq].bases:
                stack.extend(prog.class_by_name.get(b, ()))
        return None

    def field_type(cls_qname, member):
        seen = set()
        stack = [cls_qname]
        while stack:
            cq = stack.pop()
            if cq in seen or cq not in prog.classes:
                continue
            seen.add(cq)
            got = prog.field_types.get((cq, member))
            if got:
                return got
            for b in prog.classes[cq].bases:
                stack.extend(prog.class_by_name.get(b, ()))
        return None

    if len(parts) == 1:
        flags = prog.local_containers.get(fn.qname, {}).get(head)
        if flags:
            return flags
        if fn.cls:
            return field_flags(fn.cls, head)
        return None

    # Member chain: resolve the head's type, then walk member types.
    cur_type = prog.local_types.get(fn.qname, {}).get(head)
    if cur_type is None and fn.cls:
        cur_type = field_type(fn.cls, head)
    for member in parts[1:]:
        member = member.lstrip("*(").rstrip(")")
        if cur_type is None:
            return None
        cands = prog.class_by_name.get(cur_type, [])
        if not cands:
            return None
        if member == parts[-1]:
            for cq in cands:
                flags = field_flags(cq, member)
                if flags:
                    return flags
        nxt = None
        for cq in cands:
            nxt = field_type(cq, member)
            if nxt:
                break
        cur_type = nxt
    return None


def check_output_paths(prog, findings):
    """D1 (unordered-iter), D2 (nondet-source), D3 (ptr-order): one BFS
    per deterministic root over the shared graph."""
    for root in cg.expand_roots(prog, "deterministic"):
        def visit(fn, op, chain):
            if any(fn.file.endswith(f) for f in SANCTIONED_RNG_FILES):
                return False
            kind = op["kind"]
            hits = []   # (rule, message)
            if kind == "iter":
                flags = container_flags_for(prog, fn, op["name"])
                if flags:
                    if flags["unordered"]:
                        hits.append((
                            "unordered-iter",
                            f"iterates hash-ordered "
                            f"{flags['container']} `{op['name']}` on an "
                            f"output path (iteration order is not "
                            f"deterministic)"))
                    if flags["ptr_key"]:
                        hits.append((
                            "ptr-order",
                            f"iterates pointer-keyed "
                            f"{flags['container']} `{op['name']}` on an "
                            f"output path (ASLR reorders it across "
                            f"processes)"))
            elif kind == "typedecl":
                hits.append((
                    "nondet-source",
                    f"declares `{op['name']}` on an output path (random "
                    f"engine outside common/rng.h seed plumbing)"))
            elif kind == "ptrcast":
                hits.append((
                    "ptr-order",
                    "casts a pointer to uintptr_t on an output path "
                    "(address-derived value)"))
            elif kind == "ptrhash":
                hits.append((
                    "ptr-order",
                    "hashes a pointer type on an output path"))
            elif kind == "call" and not op.get("project"):
                name = op["name"]
                tinfo = op["targets"][0] if op["targets"] else {}
                qual = tinfo.get("qual", "")
                if name in RANDOM_CALLS:
                    hits.append((
                        "nondet-source",
                        f"calls `{name}` on an output path (process-"
                        f"global randomness; use common/rng.h)"))
                elif name in TIME_CALLS:
                    hits.append((
                        "nondet-source",
                        f"calls `{name}` on an output path (wall clock)"))
                elif name == "now" and qual.endswith(WALL_CLOCKS):
                    hits.append((
                        "nondet-source",
                        f"reads {qual}::now() on an output path "
                        f"(wall clock; steady_clock is the metrics "
                        f"clock)"))
            for rule, message in hits:
                if rule in op["allowed"]:
                    continue
                if cg.chain_site_allowed(prog, rule, chain):
                    continue
                findings.append(cg.Finding(rule, chain, op, message))
            return False

        cg.walk(prog, root, visit)


BAD_FP_FLAGS = ("-ffast-math", "-funsafe-math-optimizations", "-Ofast")


def check_fp_flags(prog, findings, compdb_commands):
    """D4: every TU defining a function reachable from a deterministic
    root must carry -ffp-contract=off and none of the value-unsafe
    flags. Skipped when no compilation database is available (pure
    --files fixture mode without --compdb)."""
    if not compdb_commands:
        return
    rule = "fp-flags"
    # TU -> a witness chain reaching into it (first reach wins).
    tu_chain = {}
    for root in cg.expand_roots(prog, "deterministic"):
        for qname, chain in cg.reachable_chains(prog, root).items():
            fn = prog.functions[qname]
            if not fn.file.endswith((".cc", ".cpp")):
                continue
            if fn.file not in tu_chain or len(chain) < len(
                    tu_chain[fn.file]):
                tu_chain[fn.file] = chain
    for tu in sorted(tu_chain):
        cmd = compdb_commands.get(tu)
        if cmd is None:
            continue    # header-only or fixture TU not in this compdb
        chain = tu_chain[tu]
        problems = []
        if "-ffp-contract=off" not in cmd:
            problems.append(
                ("ffp-contract",
                 "deterministic TU compiled without -ffp-contract=off "
                 "(FMA contraction varies by compiler/arch)"))
        for flag in BAD_FP_FLAGS:
            if flag in cmd.split():
                problems.append(
                    (flag.lstrip("-"),
                     f"deterministic TU compiled with {flag} "
                     f"(value-unsafe FP)"))
        for name, message in problems:
            op = {"kind": "flags", "name": name, "disp": f"flags:{name}",
                  "file": tu, "line": 1, "allowed": set(), "targets": []}
            if cg.chain_site_allowed(prog, rule, chain):
                continue
            findings.append(cg.Finding(rule, chain, op, message))


class DetcheckGate(cg.Gate):
    tool = "pmkm_detcheck"
    rules = RULES

    def collect(self, ctx):
        findings = []
        check_output_paths(ctx.prog, findings)
        check_fp_flags(ctx.prog, findings, ctx.compdb_commands)
        if ctx.virtual == "conservative" and ctx.include_unresolved:
            cg.check_unresolved(ctx.prog, findings)
        return findings


GATE = DetcheckGate()


def main(argv=None):
    return cg.run_main([GATE], argv, prog_name="pmkm_detcheck",
                       doc=__doc__)


if __name__ == "__main__":
    sys.exit(main())
