#!/usr/bin/env python3
"""pmkm_ctxcheck: whole-program call-graph analyzer for execution-context
safety (DESIGN.md §16).

Builds a conservative whole-program call graph of the pmkm tree (class-
hierarchy resolution for virtual calls; escaping std::function callables
reported as indirect edges, not ignored) and verifies four context rules
from roots annotated in src/common/annotations.h:

  signal-safe          PMKM_SIGNAL_SAFE roots (the SIGPROF handler, crash
                       paths) transitively stay on the POSIX async-signal-
                       safe allowlist: no allocation, no locks, no stdio,
                       no unknown external calls.
  no-block-under-lock  No blocking primitive (read/write/fsync/accept/
                       recv/send/Pop/CondVar::Wait/sleep/...) reachable
                       from a call made while a pmkm::Mutex is held.
                       Acquiring another annotated Mutex under a lock is
                       allowed: this very rule globally guarantees no
                       holder blocks, so acquisition is bounded (ordering
                       is the PR-5 runtime witness's job). A CondVar wait
                       performed *directly* by the lock-holding function
                       is exempt (the wait releases that mutex); the same
                       wait inside a callee blocks the caller's lock and
                       is flagged. Functions annotated
                       PMKM_NO_BLOCK_UNDER_LOCK, marked PMKM_REQUIRES, or
                       named *Locked are additionally checked as if a
                       lock were held on entry. The pmkm::Mutex/CondVar
                       bodies and the schedcheck scheduler are exempt:
                       they ARE the blocking primitives this rule models
                       (allowlist policy, DESIGN.md §16).
  wait-free            PMKM_WAITFREE roots (RollingHistogram::Record,
                       kernel AssignMasked/PruneBlock, metric
                       instruments) never allocate, lock, block, throw,
                       or call through an escaping callable. Unknown external calls are
                       tolerated (unlike signal-safe): pure math does not
                       wait.
  bounded-handler      PMKM_BOUNDED_HANDLER roots (debug-server and serve
                       session handlers) only use timeout-bounded
                       blocking primitives: CondVar::WaitFor and
                       sleep_for are fine; CondVar::Wait, queue Push/Pop,
                       join, and raw socket/file syscalls are findings
                       unless the site carries an allow documenting the
                       bound (e.g. SO_RCVTIMEO/SO_SNDTIMEO).

The call-graph engine (compdb ingestion and staleness gate, header-first
TU parse, CHA virtual resolution with receiver-type narrowing, witness
chains, sysexits contract) lives in
tools/pmkm_callgraph.py, shared with the determinism analyzer
tools/pmkm_detcheck.py (DESIGN.md §17). This module contributes only the
four context rules above. Running tools/pmkm_callgraph.py directly runs
both analyzers over a single compdb read and source parse (the CI gate).

Every finding prints the full witness chain root -> ... -> violating
operation, and any finding fails the gate: there is no baseline.
Suppress a single site with
`// pmkm-ctxcheck: allow(<rule>[, <rule>...])` on the offending line or
the line above, with a justification; an allow anywhere on the witness
chain suppresses the finding.

Exit codes follow the sysexits contract of pmkm_inspect/pmkm_lint:
  0   clean
  64  usage error
  65  findings / stale compile_commands.json
  66  compile_commands.json (or an input file) not found
  74  I/O error reading inputs

Usage:
  tools/pmkm_ctxcheck.py [--root DIR] [--compdb PATH] [--files F...]
                         [--virtual {cha,conservative}]
                         [--dump-callgraph PATH] [--list-rules] [--stats]
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import pmkm_callgraph as cg  # noqa: E402

RULES = {
    "signal-safe": "async-signal-unsafe operation reachable from a "
                   "PMKM_SIGNAL_SAFE root",
    "no-block-under-lock": "blocking primitive reachable while a "
                           "pmkm::Mutex is held",
    "wait-free": "allocation/lock/block/throw reachable from a "
                 "PMKM_WAITFREE root",
    "bounded-handler": "unbounded blocking reachable from a "
                       "PMKM_BOUNDED_HANDLER root",
}


def check_signal_safe(prog, findings):
    rule = "signal-safe"
    for root in cg.expand_roots(prog, rule):
        op_chains = {}

        def visit(fn, op, chain, op_chains=op_chains):
            op_chains.setdefault(id(op), (op, chain))
            kind, cat = op["kind"], op.get("category")
            bad = None
            if kind == "new":
                bad = "allocates in signal context"
            elif kind == "throw":
                bad = "throws in signal context"
            elif kind == "stdio":
                bad = "stdio in signal context"
            elif kind == "indirect":
                bad = "indirect call in signal context (target unknown)"
            elif kind == "call" and cat is not None:
                if op["name"] in cg.SIGNAL_SAFE_ALLOW:
                    return False
                if cat in ("lock", "condvar_wait", "condvar_waitfor",
                           "notify"):
                    bad = "lock/condvar in signal context"
                elif cat in ("alloc", "throw_ext"):
                    bad = "allocating/throwing call in signal context"
                elif cat in ("blocking", "sleep", "sleep_bounded"):
                    bad = "blocking call in signal context"
                elif cat == "unknown":
                    bad = (f"`{op['name']}` is not on the async-signal-"
                           f"safe allowlist")
            if (bad and rule not in op["allowed"]
                    and not cg.chain_site_allowed(prog, rule, chain)):
                findings.append(cg.Finding(rule, chain, op, bad))
            return False

        cg.walk(prog, root, visit)


def check_wait_free(prog, findings):
    rule = "wait-free"
    for root in cg.expand_roots(prog, rule):
        def visit(fn, op, chain):
            kind, cat = op["kind"], op.get("category")
            bad = None
            if kind == "new":
                bad = "allocates on a wait-free path"
            elif kind == "throw":
                bad = "throws on a wait-free path"
            elif kind == "stdio":
                bad = "stdio on a wait-free path"
            elif kind == "indirect":
                bad = "indirect call on a wait-free path"
            elif kind == "call" and cat is not None:
                if cat in ("alloc", "throw_ext"):
                    bad = "allocating/throwing call on a wait-free path"
                elif cat == "lock":
                    bad = "acquires a lock on a wait-free path"
                elif cat in ("condvar_wait", "condvar_waitfor", "blocking",
                             "sleep", "sleep_bounded"):
                    bad = "blocks on a wait-free path"
            if (bad and rule not in op["allowed"]
                    and not cg.chain_site_allowed(prog, rule, chain)):
                findings.append(cg.Finding(rule, chain, op, bad))
            return False

        cg.walk(prog, root, visit)


def check_bounded_handler(prog, findings):
    rule = "bounded-handler"
    for root in cg.expand_roots(prog, rule):
        def visit(fn, op, chain):
            kind, cat = op["kind"], op.get("category")
            bad = None
            if kind == "indirect":
                bad = ("indirect call in a bounded handler (target "
                       "unknown, bound unverifiable)")
            elif kind == "stdio":
                bad = "unbounded stdio in a bounded handler"
            elif kind == "call" and cat is not None:
                if cat == "condvar_wait":
                    bad = ("unbounded CondVar::Wait in a bounded handler; "
                           "use WaitFor")
                elif cat == "blocking":
                    bad = (f"blocking `{op['name']}` in a bounded handler "
                           f"needs a timeout bound (allow with the bound "
                           f"documented)")
                elif cat == "sleep":
                    bad = "unbounded sleep in a bounded handler"
            if (bad and rule not in op["allowed"]
                    and not cg.chain_site_allowed(prog, rule, chain)):
                findings.append(cg.Finding(rule, chain, op, bad))
            return False

        cg.walk(prog, root, visit)


def blocking_closure(prog, start_qnames, cache):
    """Reachable blocking ops (with witness subchains) from the given
    functions. condvar waits inside callees count: they block whatever
    lock the *caller* holds. Lock acquisition does not count (bounded by
    this very rule, see module docstring)."""
    key = tuple(sorted(start_qnames))
    if key in cache:
        return cache[key]
    out = []
    for start in start_qnames:
        def visit(fn, op, chain):
            kind, cat = op["kind"], op.get("category")
            if kind == "stdio":
                out.append((op, chain))
            elif kind == "call" and cat in (
                    "blocking", "sleep", "sleep_bounded",
                    "condvar_wait", "condvar_waitfor"):
                out.append((op, chain))
            return False

        cg.walk(prog, start, visit)
    cache[key] = out
    return out


# Rule 2 exempts the implementation of the blocking primitives
# themselves: pmkm::Mutex/CondVar bodies and the schedcheck deterministic
# scheduler exist to park threads — blocking is their contract, and their
# internal std:: waits are exactly what the `condvar_wait` category
# models at user call sites. Users of the primitives get no exemption.
RULE2_EXEMPT_SCOPES = ("pmkm::Mutex::", "pmkm::CondVar::",
                       "pmkm::schedcheck::")


def check_no_block_under_lock(prog, findings):
    rule = "no-block-under-lock"
    cache = {}
    for fn in prog.functions.values():
        if fn.qname.startswith(RULE2_EXEMPT_SCOPES):
            continue
        treat_locked = fn.requires_lock or rule in fn.annotations
        for op in fn.ops:
            under = op.get("under_lock") or []
            if not under and not treat_locked:
                continue
            kind, cat = op["kind"], op.get("category")
            site_chain = [(fn.qname, fn.file, fn.line)]
            site_ok = (rule in op["allowed"]
                       or cg.chain_site_allowed(prog, rule, site_chain))
            # Direct ops of the holder.
            if kind == "stdio":
                if not site_ok:
                    findings.append(cg.Finding(
                        rule, site_chain, op,
                        "stdio while holding a pmkm::Mutex"))
                continue
            if kind == "call" and cat in ("blocking", "sleep",
                                          "sleep_bounded"):
                if not site_ok:
                    findings.append(cg.Finding(
                        rule, site_chain, op,
                        f"blocking `{op['name']}` while holding a "
                        f"pmkm::Mutex"))
                continue
            # Direct condvar waits release the held mutex: exempt.
            if kind == "call" and cat in ("condvar_wait",
                                          "condvar_waitfor"):
                continue
            # Descend into project callees: anything blocking inside
            # them blocks while our lock is held.
            if kind == "call" and op.get("project"):
                if rule in op["allowed"]:
                    continue
                for sub_op, sub_chain in blocking_closure(
                        prog, op["project"], cache):
                    if rule in sub_op["allowed"]:
                        continue
                    chain = ([(fn.qname, op["file"], op["line"])]
                             + sub_chain)
                    if cg.chain_site_allowed(prog, rule, chain):
                        continue
                    findings.append(cg.Finding(
                        rule, chain, sub_op,
                        f"`{sub_op['disp']}` blocks while the caller "
                        f"holds a pmkm::Mutex"))


class CtxcheckGate(cg.Gate):
    tool = "pmkm_ctxcheck"
    rules = RULES

    def collect(self, ctx):
        findings = []
        check_signal_safe(ctx.prog, findings)
        check_wait_free(ctx.prog, findings)
        check_no_block_under_lock(ctx.prog, findings)
        check_bounded_handler(ctx.prog, findings)
        if ctx.virtual == "conservative" and ctx.include_unresolved:
            cg.check_unresolved(ctx.prog, findings)
        return findings


GATE = CtxcheckGate()


def main(argv=None):
    return cg.run_main([GATE], argv, prog_name="pmkm_ctxcheck",
                       doc=__doc__)


if __name__ == "__main__":
    sys.exit(main())
