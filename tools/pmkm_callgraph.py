#!/usr/bin/env python3
"""pmkm_callgraph: shared whole-program call-graph engine for the pmkm
static analyzers (DESIGN.md §16–17), and the combined single-parse gate.

Two analyzers sit on this library:

  tools/pmkm_ctxcheck.py   execution-context safety (signal-safe,
                           no-block-under-lock, wait-free,
                           bounded-handler) — DESIGN.md §16
  tools/pmkm_detcheck.py   output-byte determinism (unordered-iter,
                           nondet-source, ptr-order, fp-flags) —
                           DESIGN.md §17

The engine owns everything rule-agnostic: compile_commands.json
ingestion and the staleness gate, header-first TU parsing with the
self-contained frontend (this container ships no libclang; the parser
is tuned to the project idiom pmkm_lint already *enforces* — annotated
Mutex/MutexLock/CondVar wrappers only, no raw sync, no naked new), CHA
virtual resolution with receiver-type narrowing, escaping-callable
reporting, witness chains, and the ratcheted-baseline/sysexits
contract. The analyzers contribute only rule knowledge (root
annotations, knowledge-base categories, check visitors).

Run this module directly to run BOTH analyzers over ONE compdb read and
ONE source parse — the CI gate entry point (run_static_analysis.sh
stage 4). Each analyzer keeps its own ratchet baseline and prints its
own status line; the exit code is the worst of the two:

  tools/pmkm_callgraph.py [--root DIR] [--compdb PATH]
                          [--update-baseline] [--virtual {cha,conservative}]
                          [--dump-callgraph PATH] [--list-rules] [--stats]

Exit codes follow the sysexits contract of pmkm_inspect/pmkm_lint:
  0   clean (or all findings baselined)
  64  usage error
  65  findings / stale baseline / stale compile_commands.json
  66  compile_commands.json (or an input file) not found
  74  I/O error reading inputs
"""

import argparse
import bisect
import json
import os
import re
import sys
import time

EX_OK, EX_USAGE, EX_DATAERR, EX_NOINPUT, EX_IOERR = 0, 64, 65, 66, 74

# Annotation vocabulary (src/common/annotations.h) — the union over all
# analyzers, so one parse serves every gate. Each analyzer decides which
# rules it roots on.
ANNOTATION_MACROS = {
    "PMKM_SIGNAL_SAFE": "signal-safe",
    "PMKM_WAITFREE": "wait-free",
    "PMKM_NO_BLOCK_UNDER_LOCK": "no-block-under-lock",
    "PMKM_BOUNDED_HANDLER": "bounded-handler",
    "PMKM_DETERMINISTIC": "deterministic",
}

# Both analyzers' allow tags are parsed into the same site map; rule
# names are disjoint between tools, so there is no cross-talk.
SUPPRESS_RE = re.compile(
    r"pmkm-(?:ctxcheck|detcheck):\s*allow\(([a-z\-]+(?:\s*,\s*[a-z\-]+)*)\)")

# ---------------------------------------------------------------------------
# Knowledge base: classification of calls that leave the project graph.
# Categories: blocking (unbounded), sleep (unbounded), sleep_bounded,
# alloc, lock, condvar_wait, condvar_waitfor, notify, stdio, throw, safe.

EXTERNAL_BLOCKING = {
    "read", "pread", "readv", "write", "pwrite", "writev",
    "recv", "recvfrom", "recvmsg", "send", "sendto", "sendmsg",
    "accept", "accept4", "connect", "poll", "ppoll", "select",
    "epoll_wait", "fsync", "fdatasync", "sync_file_range", "flock",
    "waitpid", "system", "popen", "getline", "fread", "fwrite",
    "fflush", "flush", "open", "join", "wait", "wait_for",
    "wait_until",
}
EXTERNAL_SLEEP = {"sleep", "usleep", "nanosleep"}
EXTERNAL_SLEEP_BOUNDED = {"sleep_for", "sleep_until"}
EXTERNAL_ALLOC = {
    "malloc", "calloc", "realloc", "free", "strdup", "make_unique",
    "make_shared", "push_back", "emplace", "emplace_back",
    "emplace_front", "insert", "resize", "reserve", "append", "assign",
    "to_string", "substr", "str", "string", "vector",
    "ostringstream", "stringstream",
}
EXTERNAL_THROW = {"at", "stoi", "stol", "stoul", "stoull", "stof", "stod"}
EXTERNAL_LOCK = {"lock", "try_lock", "lock_guard", "unique_lock",
                 "scoped_lock"}
EXTERNAL_NOTIFY = {"notify_one", "notify_all"}

# POSIX async-signal-safe allowlist subset actually used by the project,
# plus harmless value utilities. `backtrace` is allowed with a caveat:
# its first call may dlopen/allocate, so CpuProfiler::Start() warms it up
# before installing the handler (see src/obs/profiler.cc).
SIGNAL_SAFE_ALLOW = {
    "backtrace", "memcpy", "memmove", "memset", "strlen",
    "raise", "kill", "abort", "_exit", "_Exit",
    "signal", "sigaction", "sigemptyset", "sigfillset", "sigaddset",
    "sigprocmask", "pthread_sigmask",
    "clock_gettime", "time", "gettimeofday", "getpid", "write", "read",
    "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_and",
    "fetch_or", "compare_exchange_weak", "compare_exchange_strong",
    "test_and_set", "min", "max", "move", "forward", "data", "size",
    "begin", "end",
}

# Project sync primitives: classified directly, never descended into
# (their bodies are the wrapper implementation / schedcheck hooks).
PRIMITIVE_SUFFIXES = {
    "Mutex::Lock": "lock",
    "Mutex::TryLock": "lock",
    "Mutex::Unlock": "safe",
    "Mutex::AssertHeld": "safe",
    "CondVar::Wait": "condvar_wait",
    "CondVar::WaitFor": "condvar_waitfor",
    "CondVar::NotifyOne": "notify",
    "CondVar::NotifyAll": "notify",
}

# Nondeterministic engine/value types watched at declaration sites
# (pmkm_detcheck's nondet-source rule). Kept here so the parser emits
# `typedecl` ops in the one shared pass; analyzers that do not care
# simply ignore the op kind.
NONDET_TYPE_WATCH = {
    "random_device", "mt19937", "mt19937_64", "default_random_engine",
    "minstd_rand", "minstd_rand0", "knuth_b", "ranlux24", "ranlux48",
}

CPP_KEYWORDS = {
    "if", "for", "while", "switch", "return", "catch", "sizeof",
    "alignof", "alignas", "decltype", "noexcept", "static_assert",
    "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
    "typeid", "throw", "new", "delete", "do", "else", "case", "default",
    "defined", "operator", "template", "typename", "using", "namespace",
    "assert",
}

SOURCE_EXTENSIONS = (".h", ".cc", ".cpp")


def strip_comments_and_strings(text):
    """Blank comments and string/char literals, preserving line structure
    (same technique as pmkm_lint)."""
    out = []
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state, i = "line_comment", i + 2
                out.append("  ")
                continue
            if c == "/" and nxt == "*":
                state, i = "block_comment", i + 2
                out.append("  ")
                continue
            if c == '"':
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
            out.append(c if c == "\n" else " ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state, i = "code", i + 2
                out.append("  ")
                continue
            out.append(c if c == "\n" else " ")
        elif state == "string":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "code"
                out.append('"')
            elif c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "char":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                state = "code"
                out.append("'")
            elif c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def strip_preprocessor(text):
    """Blank preprocessor directive lines (incl. continuations) so both
    arms of #if/#else are parsed as plain code."""
    out_lines = []
    cont = False
    for line in text.split("\n"):
        is_directive = cont or line.lstrip().startswith("#")
        cont = is_directive and line.rstrip().endswith("\\")
        out_lines.append(" " * len(line) if is_directive else line)
    return "\n".join(out_lines)


def strip_template_args(text):
    """Iteratively remove innermost <...> groups (declaration contexts
    only — do not use on statements with comparisons)."""
    prev = None
    while prev != text:
        prev = text
        text = re.sub(r"<[^<>]*>", " ", text)
    return text


class FunctionInfo:
    __slots__ = ("qname", "cls", "name", "file", "line", "annotations",
                 "ops", "requires_lock")

    def __init__(self, qname, cls, name, file, line):
        self.qname = qname
        self.cls = cls          # enclosing class qname or None
        self.name = name        # unqualified method/function name
        self.file = file
        self.line = line
        self.annotations = set()   # rule ids
        self.ops = []              # list of op dicts
        self.requires_lock = False


class ClassInfo:
    __slots__ = ("qname", "name", "bases", "methods")

    def __init__(self, qname, name):
        self.qname = qname
        self.name = name
        self.bases = []    # unqualified base-name strings
        self.methods = set()


class Program:
    def __init__(self):
        self.functions = {}       # qname -> FunctionInfo (defs merged)
        self.classes = {}         # qname -> ClassInfo
        self.class_by_name = {}   # unqualified name -> [qname]
        self.method_index = {}    # method name -> set of class qnames
        self.free_index = {}      # free fn name -> set of qnames
        self.decl_annotations = {}  # (class unqual name, method) -> rules
        self.free_decl_annotations = {}  # free fn name -> rules
        self.field_types = {}     # (class qname, field) -> type last name
        self.local_types = {}     # fn qname -> {var -> type last name}
        # Container-kind tracking (pmkm_detcheck D1/D3): only containers
        # whose iteration order is suspect are recorded.
        self.local_containers = {}   # fn qname -> {var -> flags dict}
        self.field_containers = {}   # (class qname, field) -> flags dict
        self.container_aliases = {}  # alias type name -> flags dict
        self.callable_names = set()      # std::function fields/aliases
        self.address_taken = set()       # '&Class::Method' style refs
        self.allow_sites = {}  # (file, line) -> rules allowed at the site
        self.parse_errors = []

    def function(self, qname, cls, name, file, line):
        fn = self.functions.get(qname)
        if fn is None:
            fn = FunctionInfo(qname, cls, name, file, line)
            self.functions[qname] = fn
        return fn


CALL_RE = re.compile(
    r"((?:[A-Za-z_]\w*\s*::\s*)*)([A-Za-z_]\w*)\s*(?:<[^<>;(){}=]*>\s*)?\(")
RECEIVER_RE = re.compile(r"([A-Za-z_]\w*|\)|\])\s*(?:\.|->)\s*$")
MUTEXLOCK_RE = re.compile(
    r"\b(?:pmkm\s*::\s*)?MutexLock\s+\w+\s*[({]\s*([^;){}]*)")
STDIO_USE_RE = re.compile(r"std\s*::\s*c(?:out|err|log|in)\b"
                          r"|std\s*::\s*[io]?fstream\b")
THROW_RE = re.compile(r"(?<![\w:])throw\b")
DEREF_CALL_RE = re.compile(r"\(\s*\*\s*([A-Za-z_]\w*)\s*\)\s*\(")
ADDR_METHOD_RE = re.compile(r"&\s*([A-Za-z_]\w*(?:\s*::\s*[A-Za-z_]\w*)+)\b")
CALLABLE_DECL_RE = re.compile(
    r"std\s*::\s*function\s*<[^;]*>\s*&?\s*([A-Za-z_]\w*)")
CALLABLE_ALIAS_RE = re.compile(
    r"using\s+([A-Za-z_]\w*)\s*=\s*std\s*::\s*function\b")
LAMBDA_TAIL_RE = re.compile(
    r"\[[^\[\]]*\]\s*(?:\([^()]*\)\s*)?(?:mutable\s*)?(?:noexcept\s*)?"
    r"(?:->\s*[^{;]+?)?\s*$")
TYPE_DECL_RE = re.compile(
    r"^(?:(?:const|mutable|static|constexpr|volatile|struct|class)\s+)*"
    r"([A-Za-z_]\w*(?:\s*::\s*[A-Za-z_]\w*)*)"
    r"(?:\s+const)?\s*[&*]*(?:\s*const\s*)?[&*]*\s+"
    r"([A-Za-z_]\w*)\s*$")
NON_TYPE_WORDS = {"return", "using", "typedef", "else", "case", "goto",
                  "auto", "void", "delete", "new", "throw", "public",
                  "private", "protected", "friend", "explicit", "virtual",
                  "inline", "extern", "break", "continue", "do"}
# `std::unique_ptr<T> x` / `std::shared_ptr<T> x`: calls through `x->`
# resolve against T, so an owned collaborator (e.g. ServeDaemon's
# service_) is not a blind spot in the graph.
SMART_PTR_DECL_RE = re.compile(
    r"^\s*(?:const\s+)?(?:std::)?(?:unique_ptr|shared_ptr)\s*<\s*"
    r"([A-Za-z_][\w:]*)\s*>\s*&?\s*([A-Za-z_]\w*)\s*(?:[;={(]|$)")
NS_RE = re.compile(r"\bnamespace(?:\s+([A-Za-z_]\w*))?\s*$")
CLASS_RE = re.compile(
    r"\b(?:class|struct)\s+(?:PMKM_\w+\s*(?:\([^()]*\)\s*)?)*"
    r"([A-Za-z_]\w*)\s*(?:final\s*)?(?::\s*(.*))?$", re.S)
# Containers whose iteration order depends on hashing (unordered) — and,
# when keyed by pointer, on allocation addresses (ptr_key). The pmkm
# tree has no abseil, but the flat_hash names are cheap future-proofing.
CONTAINER_RE = re.compile(
    r"\b(?:std\s*::\s*|absl\s*::\s*)?"
    r"(unordered_map|unordered_set|unordered_multimap|unordered_multiset|"
    r"map|set|multimap|multiset|flat_hash_map|flat_hash_set)\s*<")
TYPE_ALIAS_RE = re.compile(r"\busing\s+([A-Za-z_]\w*)\s*=\s*(.+)$", re.S)
PTR_INT_CAST_RE = re.compile(
    r"\breinterpret_cast\s*<\s*(?:std\s*::\s*)?u?intptr_t\b")
PTR_HASH_RE = re.compile(r"\bhash\s*<[^<>;]*\*")
TYPEDECL_WATCH_RE = re.compile(
    r"\b(" + "|".join(sorted(NONDET_TYPE_WATCH)) + r")\s+[A-Za-z_]\w*")


def container_kind_of(text):
    """Flags dict for a declaration (or alias RHS) naming an order-suspect
    container, else None. `unordered`: hash-ordered; `ptr_key`: key (first
    template argument) is a pointer type."""
    m = CONTAINER_RE.search(text)
    if not m:
        return None
    name = m.group(1)
    unordered = name.startswith(("unordered_", "flat_hash_"))
    # Balanced scan of the template argument list.
    depth, j = 1, m.end()
    args_start = m.end()
    first_arg_end = None
    while j < len(text) and depth:
        c = text[j]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == "," and depth == 1 and first_arg_end is None:
            first_arg_end = j
        j += 1
    if depth:
        return None
    first_arg = text[args_start:first_arg_end if first_arg_end is not None
                     else j - 1]
    ptr_key = "*" in first_arg or re.search(r"\buintptr_t\b|\bintptr_t\b",
                                            first_arg) is not None
    if not unordered and not ptr_key:
        return None
    return {"unordered": unordered, "ptr_key": ptr_key,
            "container": name, "end": j}


class FileParser:
    """One pass over a source file: scope tracking, function defs,
    call/op extraction, lock-state tracking."""

    def __init__(self, program, relpath, text):
        self.prog = program
        self.relpath = relpath
        self.raw_lines = text.splitlines()
        stripped = strip_preprocessor(strip_comments_and_strings(text))
        self.text = stripped
        self.nl = [m.start() for m in re.finditer("\n", stripped)]
        self.scopes = []   # list of dicts: kind, info, locks, held
        # Program-wide allow map so a suppression anywhere on a witness
        # chain (not just at the leaf op) can silence a finding. An allow
        # on line L covers sites on L and L+1 (comment-above form).
        for i, raw in enumerate(self.raw_lines, start=1):
            m = SUPPRESS_RE.search(raw)
            if m:
                rules = {r.strip() for r in m.group(1).split(",")}
                for site in ((relpath, i), (relpath, i + 1)):
                    program.allow_sites.setdefault(site, set()).update(rules)

    def line_of(self, offset):
        return bisect.bisect_right(self.nl, offset) + 1

    def allowed_at(self, lineno):
        allowed = set()
        for cand in (lineno, lineno - 1):
            if 1 <= cand <= len(self.raw_lines):
                m = SUPPRESS_RE.search(self.raw_lines[cand - 1])
                if m:
                    allowed.update(r.strip() for r in m.group(1).split(","))
        return allowed

    # -- scope helpers ------------------------------------------------------

    def ns_prefix(self):
        parts = []
        for s in self.scopes:
            if s["kind"] == "ns" and s["name"]:
                parts.append(s["name"])
            elif s["kind"] == "class":
                parts.append(s["info"].name)
        return "::".join(parts)

    def enclosing_function(self):
        for s in reversed(self.scopes):
            if s["kind"] == "func":
                return s
        return None

    def enclosing_class(self):
        for s in reversed(self.scopes):
            if s["kind"] == "class":
                return s["info"]
            if s["kind"] in ("func", "lambda"):
                return None
        return None

    def in_lambda(self):
        for s in reversed(self.scopes):
            if s["kind"] == "lambda":
                return True
            if s["kind"] == "func":
                return False
        return False

    def held_locks(self):
        """Locks held at this point in the innermost function (lambda
        bodies do not inherit the definition-site lock state)."""
        held = []
        for s in reversed(self.scopes):
            held.extend(s.get("locks", ()))
            if s["kind"] in ("func", "lambda"):
                break
        return held

    # -- main loop ----------------------------------------------------------

    def parse(self):
        text = self.text
        pending_start = 0
        pending = []
        i, n = 0, len(text)
        paren = 0
        while i < n:
            c = text[i]
            if c == "(":
                paren += 1
                pending.append(c)
            elif c == ")":
                paren = max(0, paren - 1)
                pending.append(c)
            elif c == ";" and paren == 0:
                self.flush_statement("".join(pending), pending_start)
                pending = []
                pending_start = i + 1
            elif c == "{":
                self.open_brace("".join(pending), pending_start, i)
                pending = []
                pending_start = i + 1
                paren = 0
            elif c == "}":
                self.flush_statement("".join(pending), pending_start)
                pending = []
                pending_start = i + 1
                if self.scopes:
                    self.scopes.pop()
                paren = 0
            else:
                pending.append(c)
            i += 1
        # EOF: tolerate unbalanced scopes (e.g. unbalanced #if arms).
        self.scopes = []

    def open_brace(self, pending, pending_start, brace_pos):
        stripped = pending.strip()
        fn_scope = self.enclosing_function()
        if fn_scope is not None:
            # Inside a function: lambda / control block / init list.
            self.flush_statement(pending, pending_start, terminal=True)
            if LAMBDA_TAIL_RE.search(stripped) and "[" in stripped:
                self.scopes.append({"kind": "lambda", "locks": []})
            else:
                self.scopes.append({"kind": "block", "locks": []})
            return
        # Namespace / class scope.
        m = NS_RE.search(stripped)
        if m and not self.enclosing_class():
            self.scopes.append({"kind": "ns", "name": m.group(1) or ""})
            return
        if "extern" in stripped and '"' in stripped:
            self.scopes.append({"kind": "ns", "name": ""})
            return
        m = CLASS_RE.search(strip_template_args(stripped))
        if m and not stripped.endswith("="):
            name = m.group(1)
            prefix = self.ns_prefix()
            qname = f"{prefix}::{name}" if prefix else name
            info = self.prog.classes.get(qname)
            if info is None:
                info = ClassInfo(qname, name)
                self.prog.classes[qname] = info
                self.prog.class_by_name.setdefault(name, []).append(qname)
            if m.group(2):
                for part in m.group(2).split(","):
                    words = re.findall(r"[A-Za-z_]\w*", part)
                    words = [w for w in words
                             if w not in ("public", "private", "protected",
                                          "virtual", "final")]
                    if words:
                        info.bases.append(words[-1])
            self.scopes.append({"kind": "class", "info": info})
            return
        sig = self.match_function_sig(stripped)
        if sig is not None:
            name, anns = sig
            self.start_function(name, anns, pending, pending_start)
            return
        # enum/union/array-init at namespace scope: opaque block.
        self.scopes.append({"kind": "block", "locks": []})

    def match_function_sig(self, stripped):
        """Return (name, annotations) if `stripped` looks like a function
        signature (possibly with ctor-init-list tail), else None."""
        if not stripped or stripped.endswith(("=", ",", "(")):
            return None
        clean = strip_template_args(re.sub(r"\[\[[^\]]*\]\]", " ", stripped))
        for m in re.finditer(r"([~A-Za-z_][\w]*(?:\s*::\s*~?[A-Za-z_]\w*)*)"
                             r"\s*\(", clean):
            name = re.sub(r"\s+", "", m.group(1))
            last = name.rsplit("::", 1)[-1].lstrip("~")
            if last in CPP_KEYWORDS or last.startswith("PMKM_"):
                continue
            # balance parens from the match
            depth, j = 0, m.end() - 1
            while j < len(clean):
                if clean[j] == "(":
                    depth += 1
                elif clean[j] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            if depth != 0:
                continue
            tail = clean[j + 1:]
            if ";" in tail or "}" in tail:
                continue
            anns = {rule for macro, rule in ANNOTATION_MACROS.items()
                    if re.search(r"\b%s\b" % macro, stripped)}
            return name, anns
        return None

    def start_function(self, name, anns, pending, pending_start):
        cls = self.enclosing_class()
        prefix = self.ns_prefix()
        unqual = name.rsplit("::", 1)[-1]
        if cls is not None:
            qname = f"{cls.qname}::{unqual}"
            cls.methods.add(unqual)
            cls_qname = cls.qname
        elif "::" in name:
            # Out-of-line definition: Class::Method or ns::Free.
            owner = name.rsplit("::", 1)[0].replace(" ", "")
            owner_q = self.resolve_class_name(owner, prefix)
            if owner_q:
                qname = f"{owner_q}::{unqual}"
                self.prog.classes[owner_q].methods.add(unqual)
                cls_qname = owner_q
            else:
                qname = (f"{prefix}::{owner}::{unqual}" if prefix
                         else f"{owner}::{unqual}")
                cls_qname = None
        else:
            qname = f"{prefix}::{unqual}" if prefix else unqual
            cls_qname = None
        line = self.line_of(pending_start + max(0, len(pending)
                                                - len(pending.lstrip())))
        fn = self.prog.function(qname, cls_qname, unqual, self.relpath, line)
        fn.annotations |= anns
        if re.search(r"\bPMKM_REQUIRES\b", pending) or unqual.endswith(
                "Locked"):
            fn.requires_lock = True
        if cls_qname is None and unqual and "::" not in name:
            self.prog.free_index.setdefault(unqual, set()).add(qname)
        if cls_qname is not None:
            self.prog.method_index.setdefault(unqual, set()).add(cls_qname)
        self.scopes.append({"kind": "func", "info": fn, "locks": [],
                            "held": []})
        # Parameter types for receiver resolution.
        clean = strip_template_args(re.sub(r"\[\[[^\]]*\]\]", " ", pending))
        pm = re.search(r"%s\s*\(" % re.escape(unqual), clean)
        if pm:
            depth, j = 1, pm.end()
            while j < len(clean) and depth:
                if clean[j] == "(":
                    depth += 1
                elif clean[j] == ")":
                    depth -= 1
                j += 1
            self.record_param_types(clean[pm.end():j - 1], fn)
        # Container-kind flags for parameters come from the RAW signature
        # (the template arguments carry the information).
        rm = re.search(r"%s\s*\(" % re.escape(unqual), pending)
        if rm:
            depth, j = 1, rm.end()
            while j < len(pending) and depth:
                if pending[j] == "(":
                    depth += 1
                elif pending[j] == ")":
                    depth -= 1
                j += 1
            self.record_param_containers(pending[rm.end():j - 1], fn)
        # Calls in the signature / ctor-init-list belong to the function.
        self.extract_ops(pending, pending_start, fn)

    def resolve_class_name(self, owner, prefix):
        """Map an out-of-line definition owner to a known class qname."""
        owner_last = owner.rsplit("::", 1)[-1]
        cands = self.prog.class_by_name.get(owner_last, [])
        if not cands:
            return None
        if len(cands) == 1:
            return cands[0]
        for c in cands:
            if prefix and c.startswith(prefix):
                return c
        return cands[0]

    # -- statements ---------------------------------------------------------

    def flush_statement(self, stmt, start, terminal=False):
        if not stmt.strip():
            return
        fn_scope = self.enclosing_function()
        cls = self.enclosing_class()
        if fn_scope is not None:
            fq = fn_scope["info"].qname
            got = self.decl_type_of(stmt)
            if got:
                self.prog.local_types.setdefault(fq, {})[got[1]] = got[0]
                flags = (container_kind_of(stmt)
                         or self.prog.container_aliases.get(got[0]))
                if flags:
                    self.prog.local_containers.setdefault(
                        fq, {})[got[1]] = flags
            self.track_locks(stmt, start)
            self.extract_ops(stmt, start, fn_scope["info"])
            return
        if cls is not None:
            self.class_member_decl(stmt, cls)
            return
        # Namespace scope: collect callable and container aliases;
        # ignore the rest.
        for m in CALLABLE_ALIAS_RE.finditer(stmt):
            self.prog.callable_names.add(m.group(1))
        self.record_type_alias(stmt)

    def record_type_alias(self, stmt):
        m = TYPE_ALIAS_RE.search(stmt)
        if m:
            flags = container_kind_of(m.group(2))
            if flags:
                self.prog.container_aliases[m.group(1)] = flags

    @staticmethod
    def decl_type_of(text):
        """(type-last-component, var) for a declaration head, or None."""
        smart = SMART_PTR_DECL_RE.match(text)
        if smart:
            return smart.group(1).rsplit("::", 1)[-1], smart.group(2)
        clean = strip_template_args(re.sub(r"\[\[[^\]]*\]\]", " ", text))
        clean = re.sub(r"PMKM_\w+\s*(?:\([^()]*\))?", " ", clean)
        head = re.split(r"[={(]", clean, 1)[0].strip().rstrip(",")
        m = TYPE_DECL_RE.match(head)
        if not m:
            return None
        ty = re.sub(r"\s+", "", m.group(1)).rsplit("::", 1)[-1]
        if ty in NON_TYPE_WORDS or m.group(2) in NON_TYPE_WORDS:
            return None
        return ty, m.group(2)

    def record_param_types(self, params_text, fn):
        locals_ = self.prog.local_types.setdefault(fn.qname, {})
        depth = 0
        part = []
        parts = []
        for c in params_text:
            if c == "(":
                depth += 1
            elif c == ")":
                depth = max(0, depth - 1)
            if c == "," and depth == 0:
                parts.append("".join(part))
                part = []
            else:
                part.append(c)
        parts.append("".join(part))
        for p in parts:
            got = self.decl_type_of(p)
            if got:
                locals_[got[1]] = got[0]

    def record_param_containers(self, raw_params, fn):
        """Container-kind flags for by-(const-)reference container
        parameters, split on template-depth-aware top-level commas."""
        depth = 0
        part = []
        parts = []
        for c in raw_params:
            if c in "(<":
                depth += 1
            elif c in ")>":
                depth = max(0, depth - 1)
            if c == "," and depth == 0:
                parts.append("".join(part))
                part = []
            else:
                part.append(c)
        parts.append("".join(part))
        for p in parts:
            flags = container_kind_of(p)
            if not flags:
                continue
            m = re.search(r"[&\s]\s*([A-Za-z_]\w*)\s*$", p)
            if m:
                self.prog.local_containers.setdefault(
                    fn.qname, {})[m.group(1)] = flags

    def class_member_decl(self, stmt, cls):
        # The first declaration after an access specifier arrives with the
        # label glued on ("private:\n  std::map<...> m_") — strip it so
        # decl_type_of sees a clean declaration head.
        stmt = re.sub(r"^\s*(?:public|protected|private)\s*:\s*", "", stmt)
        for m in CALLABLE_ALIAS_RE.finditer(stmt):
            self.prog.callable_names.add(m.group(1))
        for m in CALLABLE_DECL_RE.finditer(stmt):
            self.prog.callable_names.add(m.group(1))
        self.record_type_alias(stmt)
        clean = strip_template_args(re.sub(r"\[\[[^\]]*\]\]", " ", stmt))
        sig = self.match_function_sig(clean.strip())
        if sig is None:
            got = self.decl_type_of(stmt)
            if got:
                ty, var = got
                if ty in self.prog.callable_names:
                    self.prog.callable_names.add(var)
                else:
                    self.prog.field_types[(cls.qname, var)] = ty
                    flags = (container_kind_of(stmt)
                             or self.prog.container_aliases.get(ty))
                    if flags:
                        self.prog.field_containers[(cls.qname, var)] = flags
            return
        name, anns = sig
        unqual = name.rsplit("::", 1)[-1]
        cls.methods.add(unqual)
        self.prog.method_index.setdefault(unqual, set()).add(cls.qname)
        if anns:
            key = (cls.name, unqual)
            self.prog.decl_annotations.setdefault(key, set()).update(anns)
        if re.search(r"\bPMKM_REQUIRES\b", stmt) or unqual.endswith("Locked"):
            self.prog.decl_annotations.setdefault(
                (cls.name, unqual), set()).add("__requires__")

    def track_locks(self, stmt, start):
        scope = self.scopes[-1] if self.scopes else None
        if scope is None or scope["kind"] not in ("func", "block"):
            return
        for m in MUTEXLOCK_RE.finditer(stmt):
            lock_expr = re.sub(r"\s+", "", m.group(1)) or "<mutex>"
            scope.setdefault("locks", []).append(lock_expr)
        for m in re.finditer(r"([A-Za-z_][\w.>-]*)\s*(?:\.|->)\s*Lock\s*\(",
                             stmt):
            scope.setdefault("locks", []).append(m.group(1))
        for m in re.finditer(r"([A-Za-z_][\w.>-]*)\s*(?:\.|->)\s*Unlock\s*"
                             r"\(", stmt):
            expr = m.group(1)
            for s in reversed(self.scopes):
                if expr in s.get("locks", ()):
                    s["locks"].remove(expr)
                    break
                if s["kind"] in ("func", "lambda"):
                    break

    def add_op(self, fn, kind, name, line, targets=None, disp=None):
        fn.ops.append({
            "kind": kind, "name": name, "disp": disp or name,
            "file": self.relpath, "line": line,
            "under_lock": list(self.held_locks()) if not self.in_lambda()
                          else [],
            "in_lambda": self.in_lambda(),
            "targets": targets or [],
            "allowed": self.allowed_at(line),
        })

    def extract_iteration_ops(self, stmt, start, fn):
        """Range-for ops over named containers (pmkm_detcheck D1/D3).
        The container kind is resolved at CHECK time, not here: a method
        defined inside the class body may iterate a field declared
        further down, before the parser has seen the declaration."""
        for m in re.finditer(r"\bfor\s*\(", stmt):
            depth, j = 1, m.end()
            while j < len(stmt) and depth:
                if stmt[j] == "(":
                    depth += 1
                elif stmt[j] == ")":
                    depth -= 1
                j += 1
            inner = stmt[m.end():j - 1]
            if depth or ";" in inner:
                continue    # unbalanced, or a classic three-clause for
            colon = None
            pdepth = 0
            for k, c in enumerate(inner):
                if c in "([":
                    pdepth += 1
                elif c in ")]":
                    pdepth = max(0, pdepth - 1)
                elif (c == ":" and pdepth == 0
                      and (k == 0 or inner[k - 1] != ":")
                      and (k + 1 >= len(inner) or inner[k + 1] != ":")):
                    colon = k
                    break
            if colon is None:
                continue
            expr = re.sub(r"\s+", "", inner[colon + 1:])
            if not expr or not re.match(r"^[\w.>\-*()\[\]]+$", expr):
                continue
            self.add_op(fn, "iter", expr, self.line_of(start + m.start()),
                        disp=f"range-for over {expr}")

    def extract_ops(self, stmt, start, fn):
        for m in THROW_RE.finditer(stmt):
            self.add_op(fn, "throw", "throw", self.line_of(start + m.start()))
        for m in STDIO_USE_RE.finditer(stmt):
            self.add_op(fn, "stdio", m.group(0).replace(" ", ""),
                        self.line_of(start + m.start()))
        for m in DEREF_CALL_RE.finditer(stmt):
            self.add_op(fn, "indirect", "(*%s)" % m.group(1),
                        self.line_of(start + m.start()))
        for m in ADDR_METHOD_RE.finditer(stmt):
            ref = re.sub(r"\s+", "", m.group(1))
            if not ref.startswith("std::"):
                self.prog.address_taken.add(ref)
        self.extract_iteration_ops(stmt, start, fn)
        for m in PTR_INT_CAST_RE.finditer(stmt):
            self.add_op(fn, "ptrcast", "reinterpret_cast<uintptr_t>",
                        self.line_of(start + m.start()))
        for m in PTR_HASH_RE.finditer(stmt):
            self.add_op(fn, "ptrhash", "hash<T*>",
                        self.line_of(start + m.start()))
        for m in TYPEDECL_WATCH_RE.finditer(stmt):
            self.add_op(fn, "typedecl", m.group(1),
                        self.line_of(start + m.start()),
                        disp=f"declare {m.group(1)}")
        for m in CALL_RE.finditer(stmt):
            qual = re.sub(r"\s+", "", m.group(1)).rstrip(":")
            name = m.group(2)
            if name in CPP_KEYWORDS or name.startswith("PMKM_"):
                continue
            line = self.line_of(start + m.start(1 if m.group(1) else 2))
            before = stmt[:m.start()]
            if re.search(r"\bnew\s+$", before):
                self.add_op(fn, "new", name, line, disp="new " + name)
                continue
            recv_m = RECEIVER_RE.search(before) if not qual else None
            receiver = recv_m.group(1) if recv_m else None
            if name in self.prog.callable_names or (
                    receiver is None and not qual
                    and name in self.prog.callable_names):
                self.add_op(fn, "indirect", name, line)
                continue
            self.add_op(fn, "call", name, line, targets=[{
                "qual": qual, "receiver": receiver,
                "global_ns": bool(m.group(1)) is False and
                before.rstrip().endswith("::"),
            }])


# ---------------------------------------------------------------------------
# Resolution: turn raw call ops into project edges or external categories.


def derived_closure(prog, cls_qname):
    """All classes transitively derived from cls_qname (by name match)."""
    out = set()
    target_names = {prog.classes[cls_qname].name}
    changed = True
    while changed:
        changed = False
        for q, info in prog.classes.items():
            if q in out or q == cls_qname:
                continue
            if any(b in target_names for b in info.bases):
                out.add(q)
                target_names.add(info.name)
                changed = True
    return out


def classify_external(name, receiver):
    if name in EXTERNAL_BLOCKING:
        return "blocking"
    if name in EXTERNAL_SLEEP:
        return "sleep"
    if name in EXTERNAL_SLEEP_BOUNDED:
        return "sleep_bounded"
    if name in EXTERNAL_ALLOC:
        return "alloc"
    if name in EXTERNAL_THROW:
        return "throw_ext"
    if name in EXTERNAL_LOCK:
        return "lock"
    if name in EXTERNAL_NOTIFY:
        return "notify"
    if name == "Wait":
        return "condvar_wait"
    if name == "WaitFor":
        return "condvar_waitfor"
    if name in ("NotifyOne", "NotifyAll"):
        return "notify"
    return "unknown"


def resolve(prog):
    """Rewrite each 'call' op in place: set op['project'] (list of target
    qnames) and op['category'] for external/primitive calls."""
    for fn in prog.functions.values():
        for op in fn.ops:
            if op["kind"] != "call":
                continue
            name = op["name"]
            tinfo = op["targets"][0] if op["targets"] else {}
            qual, receiver = tinfo.get("qual", ""), tinfo.get("receiver")
            op["project"] = []
            op["category"] = None

            # Static receiver type, when a field/local/param decl names it.
            rtype = None
            if receiver and receiver not in ("this", ")", "]"):
                rtype = prog.local_types.get(fn.qname, {}).get(receiver)
                if rtype is None and fn.cls:
                    rtype = prog.field_types.get((fn.cls, receiver))
            if receiver == "this":
                receiver, qual = None, ""

            # Project sync primitives (Mutex/CondVar wrappers): classified,
            # never descended into.
            prim = None
            if name in ("Lock", "TryLock", "Unlock", "AssertHeld", "Wait",
                        "WaitFor", "NotifyOne", "NotifyAll"):
                for suffix, cat in PRIMITIVE_SUFFIXES.items():
                    owner, sname = suffix.rsplit("::", 1)
                    if name != sname:
                        continue
                    if rtype is not None:
                        if rtype == owner:
                            prim = cat
                        break
                    if qual.endswith(owner) or receiver or not qual:
                        prim = cat
                        break
            elif name == "MutexLock":
                prim = "lock"
            if prim is not None:
                op["category"] = prim
                continue

            targets = set()

            def class_targets(cands):
                out = set()
                for cq in cands:
                    q = f"{cq}::{name}"
                    if q in prog.functions:
                        out.add(q)
                    for d in derived_closure(prog, cq):
                        dq = f"{d}::{name}"
                        if dq in prog.functions:
                            out.add(dq)
                return out

            if rtype is not None:
                # Known static type: resolve within its hierarchy only. A
                # known non-project type (std:: etc.) is classified by the
                # knowledge base, not smeared over every same-named method.
                targets = class_targets(prog.class_by_name.get(rtype, []))
            elif qual and qual != "std":
                owner_last = qual.rsplit("::", 1)[-1]
                targets = class_targets(prog.class_by_name.get(
                    owner_last, []))
                if not targets:
                    # ns-qualified free function
                    for q in prog.free_index.get(name, ()):
                        if q.endswith(f"{qual}::{name}") or \
                                qual in q.split("::"):
                            targets.add(q)
            elif receiver is not None or qual == "std":
                if qual != "std":
                    # Unknown receiver type: conservative name-based CHA.
                    for cq in prog.method_index.get(name, ()):
                        q = f"{cq}::{name}"
                        if q in prog.functions:
                            targets.add(q)
            else:
                # Unqualified: this-call within the class (+ bases), then
                # free functions.
                if fn.cls:
                    seen_cls = {fn.cls} | derived_closure(prog, fn.cls)
                    # also walk up: bases defining the method
                    for cq in prog.method_index.get(name, ()):
                        cinfo = prog.classes.get(fn.cls)
                        if cinfo and (cq in seen_cls or
                                      prog.classes[cq].name in cinfo.bases):
                            q = f"{cq}::{name}"
                            if q in prog.functions:
                                targets.add(q)
                    q = f"{fn.cls}::{name}"
                    if q in prog.functions:
                        targets.add(q)
                if not targets:
                    targets |= set(prog.free_index.get(name, ()))

            if targets:
                op["project"] = sorted(targets)
            else:
                op["category"] = classify_external(name, receiver)

    # Fold declaration-site annotations onto definitions.
    for (cls_name, method), anns in prog.decl_annotations.items():
        for cq in prog.class_by_name.get(cls_name, []):
            q = f"{cq}::{method}"
            fn = prog.functions.get(q)
            if fn is not None:
                if "__requires__" in anns:
                    fn.requires_lock = True
                fn.annotations |= (anns - {"__requires__"})


def expand_roots(prog, rule):
    """Annotated functions plus overrides in derived classes (an
    annotation on a virtual base method covers every implementation)."""
    roots = set()
    for fn in prog.functions.values():
        if rule in fn.annotations:
            roots.add(fn.qname)
            if fn.cls:
                for d in derived_closure(prog, fn.cls):
                    q = f"{d}::{fn.name}"
                    if q in prog.functions:
                        roots.add(q)
    # Annotations that exist only on declarations (pure virtuals).
    for (cls_name, method), anns in prog.decl_annotations.items():
        if rule not in anns:
            continue
        for cq in prog.class_by_name.get(cls_name, []):
            for d in derived_closure(prog, cq) | {cq}:
                q = f"{d}::{method}"
                if q in prog.functions:
                    roots.add(q)
    return sorted(roots)


# ---------------------------------------------------------------------------
# Findings and traversal.


class Finding:
    def __init__(self, rule, chain, op, message):
        self.rule = rule
        self.chain = chain      # [(qname, file, line), ...] root..leaf fn
        self.op = op
        self.message = message

    def key(self):
        root = self.chain[0][0] if self.chain else "?"
        leaf = self.chain[-1][0] if self.chain else "?"
        return (f"{self.rule}|{root}|{leaf}|"
                f"{self.op['kind']}:{self.op['name']}")

    def render(self):
        lines = [f"{self.op['file']}:{self.op['line']}: [{self.rule}] "
                 f"{self.message}"]
        for qname, file, line in self.chain:
            lines.append(f"    {qname} ({file}:{line})")
        lines.append(f"    -> {self.op['disp']} "
                     f"({self.op['file']}:{self.op['line']})")
        return "\n".join(lines)


def walk(prog, root_qname, visit_op):
    """BFS over project edges from root. visit_op(fn, op, chain) is
    called for every op; return True from it to stop descending a call.
    chain = [(qname, file, line-of-entry/callsite), ...]."""
    root = prog.functions[root_qname]
    queue = [(root, [(root.qname, root.file, root.line)])]
    visited = {root.qname}
    while queue:
        fn, chain = queue.pop(0)
        for op in fn.ops:
            if visit_op(fn, op, chain):
                continue
            if op["kind"] == "call":
                for t in op.get("project", []):
                    if t in visited:
                        continue
                    visited.add(t)
                    tfn = prog.functions[t]
                    queue.append(
                        (tfn, chain + [(t, op["file"], op["line"])]))


def reachable_chains(prog, root_qname):
    """{qname -> witness chain} for every project function reachable from
    the root over call edges (first chain found wins, BFS order)."""
    root = prog.functions[root_qname]
    out = {root_qname: [(root.qname, root.file, root.line)]}
    queue = [root_qname]
    while queue:
        q = queue.pop(0)
        chain = out[q]
        for op in prog.functions[q].ops:
            if op["kind"] != "call":
                continue
            for t in op.get("project", []):
                if t not in out:
                    out[t] = chain + [(t, op["file"], op["line"])]
                    queue.append(t)
    return out


def chain_allowed(rule, chain_ops):
    return any(rule in op.get("allowed", ()) for op in chain_ops if op)


def chain_site_allowed(prog, rule, chain):
    """An allow comment anywhere on the witness chain — the root's
    definition line or any call-site line — suppresses the finding."""
    return any(rule in prog.allow_sites.get((file, line), ())
               for _, file, line in chain)


def check_unresolved(prog, findings):
    """--virtual=conservative: member calls that resolve to no project
    function and no knowledge-base entry are reported, not ignored."""
    for fn in prog.functions.values():
        for op in fn.ops:
            if op["kind"] != "call" or op.get("project"):
                continue
            if op.get("category") == "unknown" and op["targets"] and \
                    op["targets"][0].get("receiver"):
                if "unresolved" in op["allowed"]:
                    continue
                findings.append(Finding(
                    "unresolved", [(fn.qname, fn.file, fn.line)], op,
                    f"member call `{op['name']}` resolves to no project "
                    f"function or knowledge-base entry"))


# ---------------------------------------------------------------------------
# Inputs: compile_commands.json, file discovery, baseline.


def find_compdb(root, explicit):
    if explicit:
        return explicit if os.path.isfile(explicit) else None
    for d in ("build-tsa", "build"):
        p = os.path.join(root, d, "compile_commands.json")
        if os.path.isfile(p):
            return p
    return None


def load_compdb(path):
    """(entries, error): the parsed compile_commands.json, read ONCE per
    gate run and shared by every analyzer (staleness + fp-flags audit)."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f), None
    except (OSError, ValueError) as err:
        return None, str(err)


def compdb_command_by_file(entries, root):
    """{root-relative TU -> full compile command string}."""
    out = {}
    for e in entries or ():
        p = e.get("file", "")
        if not os.path.isabs(p):
            p = os.path.join(e.get("directory", ""), p)
        rel = os.path.relpath(os.path.realpath(p), root)
        cmd = e.get("command")
        if cmd is None:
            cmd = " ".join(e.get("arguments", ()))
        out[rel] = cmd
    return out


def compdb_staleness(root, compdb_path, entries, sources):
    """Returns a list of staleness errors: sources missing from the
    compdb, or newer than it (regenerate with cmake)."""
    compdb_files = set()
    for e in entries:
        p = e.get("file", "")
        if not os.path.isabs(p):
            p = os.path.join(e.get("directory", ""), p)
        compdb_files.add(os.path.relpath(os.path.realpath(p), root))
    errors = []
    compdb_mtime = os.path.getmtime(compdb_path)
    for rel in sources:
        if not rel.endswith((".cc", ".cpp")):
            continue
        if rel not in compdb_files:
            errors.append(f"{rel}: not in compile_commands.json "
                          f"(stale compdb; re-run cmake)")
            continue
        try:
            if os.path.getmtime(os.path.join(root, rel)) > compdb_mtime:
                errors.append(f"{rel}: newer than compile_commands.json "
                              f"(stale compdb; re-run cmake)")
        except OSError:
            pass
    return errors


def collect_sources(root, files):
    if files:
        out = [os.path.relpath(os.path.abspath(f), root) for f in files]
    else:
        out = []
        for top in ("src", "tools"):
            base = os.path.join(root, top)
            if not os.path.isdir(base):
                continue
            for dirpath, dirnames, filenames in os.walk(base):
                dirnames[:] = sorted(d for d in dirnames
                                     if not d.startswith("."))
                for name in sorted(filenames):
                    if name.endswith(SOURCE_EXTENSIONS):
                        out.append(os.path.relpath(
                            os.path.join(dirpath, name), root))
    # Headers first: class declarations must be known before the .cc
    # files that define their methods out of line, or those definitions
    # cannot be attached to their class.
    out.sort(key=lambda p: (not p.endswith(".h"), p))
    return out


def load_baseline(path):
    entries = set()
    if path and os.path.isfile(path):
        with open(path, "r", encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if line and not line.startswith("#"):
                    entries.add(line)
    return entries


def dump_callgraph(prog, path):
    data = {
        "functions": {
            fn.qname: {
                "file": fn.file, "line": fn.line,
                "annotations": sorted(fn.annotations),
                "requires_lock": fn.requires_lock,
                "calls": [
                    {"name": op["name"], "kind": op["kind"],
                     "line": op["line"],
                     "targets": op.get("project", []),
                     "category": op.get("category"),
                     "under_lock": bool(op.get("under_lock"))}
                    for op in fn.ops
                ],
            } for fn in prog.functions.values()
        },
        "classes": {
            c.qname: {"bases": c.bases, "methods": sorted(c.methods)}
            for c in prog.classes.values()
        },
        "callable_names": sorted(prog.callable_names),
        "address_taken": sorted(prog.address_taken),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=1, sort_keys=True)


class SysexitsParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EX_USAGE)


# ---------------------------------------------------------------------------
# Gate driver: one compdb read + one source parse, N analyzers.


class Gate:
    """One analyzer's rule layer. Subclasses set `tool`, `rules`,
    `default_baseline`, `baseline_header`, and implement collect(ctx)
    returning a list of Findings. ctx carries: prog, root, virtual,
    compdb_commands ({rel TU -> command} or None), include_unresolved."""

    tool = "pmkm_gate"
    rules = {}
    default_baseline = None
    baseline_header = ""

    def collect(self, ctx):
        raise NotImplementedError


class GateContext:
    def __init__(self, prog, root, virtual, compdb_commands,
                 include_unresolved):
        self.prog = prog
        self.root = root
        self.virtual = virtual
        self.compdb_commands = compdb_commands
        self.include_unresolved = include_unresolved


def run_main(gates, argv=None, prog_name="pmkm_callgraph", doc=None):
    parser = SysexitsParser(
        prog=prog_name, description=doc,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    parser.add_argument("--compdb", default=None,
                        help="compile_commands.json (default: "
                             "build-tsa/ or build/ under --root)")
    parser.add_argument("--files", nargs="+", default=None,
                        help="analyze only these files (fixture mode; "
                             "skips the compdb staleness gate — pass "
                             "--compdb explicitly to still audit flags)")
    if len(gates) == 1:
        parser.add_argument("--baseline", default=None,
                            help="ratchet baseline file (default: "
                                 f"{gates[0].default_baseline} under "
                                 "--root)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline entirely")
    parser.add_argument("--update-baseline", action="store_true")
    parser.add_argument("--virtual", choices=("cha", "conservative"),
                        default="cha",
                        help="cha: class-hierarchy resolution (default); "
                             "conservative: additionally report member "
                             "calls that resolve to nothing")
    parser.add_argument("--dump-callgraph", default=None, metavar="PATH")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--stats", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for gate in gates:
            for rule, desc in gate.rules.items():
                print(f"{rule:20} {desc}")
        return EX_OK

    root = os.path.abspath(args.root)
    t0 = time.time()
    sources = collect_sources(root, args.files)
    if not sources:
        print(f"{prog_name}: no sources found", file=sys.stderr)
        return EX_NOINPUT

    compdb_commands = None
    if args.files is None:
        compdb = find_compdb(root, args.compdb)
        if compdb is None:
            print(f"{prog_name}: compile_commands.json not found "
                  "(configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON "
                  "or pass --compdb)", file=sys.stderr)
            return EX_NOINPUT
        entries, err = load_compdb(compdb)
        if err is not None:
            print(f"{prog_name}: STALE: cannot read {compdb}: {err}",
                  file=sys.stderr)
            return EX_DATAERR
        stale = compdb_staleness(root, compdb, entries, sources)
        if stale:
            for s in stale:
                print(f"{prog_name}: STALE: {s}", file=sys.stderr)
            return EX_DATAERR
        compdb_commands = compdb_command_by_file(entries, root)
    elif args.compdb:
        # Fixture mode with an explicit compdb: no staleness gate, but
        # flag audits still run against the given database.
        if not os.path.isfile(args.compdb):
            print(f"{prog_name}: {args.compdb} not found", file=sys.stderr)
            return EX_NOINPUT
        entries, err = load_compdb(args.compdb)
        if err is not None:
            print(f"{prog_name}: STALE: cannot read {args.compdb}: {err}",
                  file=sys.stderr)
            return EX_DATAERR
        compdb_commands = compdb_command_by_file(entries, root)

    program = Program()
    for rel in sources:
        path = os.path.join(root, rel)
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as err:
            print(f"{prog_name}: cannot read {rel}: {err}",
                  file=sys.stderr)
            return EX_IOERR
        FileParser(program, rel, text).parse()

    resolve(program)

    if args.dump_callgraph:
        dump_callgraph(program, args.dump_callgraph)

    exit_code = EX_OK
    for i, gate in enumerate(gates):
        ctx = GateContext(program, root, args.virtual, compdb_commands,
                          include_unresolved=(i == 0))
        findings = gate.collect(ctx)

        # Dedup by key (overloads / merged defs can double-report).
        seen, unique = set(), []
        for f in findings:
            if f.key() not in seen:
                seen.add(f.key())
                unique.append(f)
        findings = unique

        baseline_path = os.path.join(root, gate.default_baseline)
        if len(gates) == 1 and getattr(args, "baseline", None):
            baseline_path = args.baseline
        baseline = (set() if args.no_baseline
                    else load_baseline(baseline_path))

        if args.update_baseline:
            with open(baseline_path, "w", encoding="utf-8") as f:
                f.write(gate.baseline_header)
                for k in sorted(f2.key() for f2 in findings):
                    f.write(k + "\n")
            print(f"{gate.tool}: baseline updated with {len(findings)} "
                  f"entr{'y' if len(findings) == 1 else 'ies'}")
            continue

        new = [f for f in findings if f.key() not in baseline]
        baselined = [f for f in findings if f.key() in baseline]
        stale_baseline = baseline - {f.key() for f in findings}

        for f in new:
            print(f.render())
            print()
        for f in baselined:
            print(f"baselined: {f.key()}")
        for k in sorted(stale_baseline):
            print(f"stale baseline entry (delete it, the baseline may only "
                  f"shrink): {k}")

        elapsed = time.time() - t0
        if args.stats and i == 0:
            nops = sum(len(fn.ops) for fn in program.functions.values())
            print(f"{prog_name}: {len(sources)} files, "
                  f"{len(program.functions)} functions, "
                  f"{len(program.classes)} classes, {nops} ops, "
                  f"{elapsed:.2f}s")
        status = "FAILED" if (new or stale_baseline) else "OK"
        print(f"{gate.tool}: {status} — {len(new)} new finding(s), "
              f"{len(baselined)} baselined, {len(stale_baseline)} stale "
              f"baseline entr{'y' if len(stale_baseline) == 1 else 'ies'} "
              f"({elapsed:.2f}s)")
        if new or stale_baseline:
            exit_code = EX_DATAERR
    return exit_code


def combined_main(argv=None):
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import pmkm_ctxcheck
    import pmkm_detcheck
    return run_main([pmkm_ctxcheck.GATE, pmkm_detcheck.GATE], argv,
                    prog_name="pmkm_callgraph", doc=__doc__)


if __name__ == "__main__":
    sys.exit(combined_main())
