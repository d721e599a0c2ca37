#!/usr/bin/env python3
"""pmkm_lint: fast project-invariant linter for the pmkm tree.

Enforces the invariants that make the partial/merge k-means engine
trustworthy at scale but that no compiler checks (DESIGN.md §11):

  raw-random    All randomness flows through common/rng.h (seeded,
                reproducible). `rand()`/`srand()`/`random()`, the
                drand48 family, `std::random_device`, raw `std::mt19937`
                engines, `std::default_random_engine`, and
                `std::random_shuffle` are banned everywhere else: one
                unseeded draw makes a TB-scale run unreproducible (and
                pmkm_detcheck's nondet-source rule proves the same
                property path-sensitively on output paths).
  naked-new     Library code (src/) never uses naked new/delete; ownership
                is expressed with containers and smart pointers so leaks
                are structurally impossible.
  stdio         Library code (src/) never writes to std::cout/std::cerr or
                printf/fprintf; it uses PMKM_LOG so output is leveled,
                rate-limitable, run-id tagged, and capturable (JSON mode).
                Structurally exempt: common/logging.{h,cc} (the sink that
                writes the final bytes) and common/schedcheck/ (reports
                from inside the scheduler, below the logging layer in the
                link graph). CLI surface (tools/, bench/, examples/) is
                exempt.
  sleep         `std::this_thread::sleep_for` in library code hides
                latency bugs and breaks determinism; only the retry
                backoff and fault-injection machinery may sleep.
  header-guard  Every header uses an #ifndef guard named
                PMKM_<PATH>_H_ (path relative to src/, or to the repo root
                outside src/); `#pragma once` is forbidden for
                consistency.
  fault-site    PMKM_FAULT_POINT sites are string literals named
                `component.action` (lowercase dotted), so fault specs in
                PMKM_FAULTS/--faults stay greppable and collision-free.
  raw-sync      Library code (src/) synchronizes through the annotated
                wrappers in common/annotations.h (Mutex, MutexLock,
                CondVar), never raw std::mutex/std::condition_variable/
                std::lock_guard &c. — the wrappers carry the thread-safety
                annotations AND the schedcheck hooks, so a raw primitive
                is invisible to both the compile-time analysis and the
                deterministic schedule explorer. The wrappers' own
                implementation (annotations.h, common/schedcheck/) is
                exempt.
  persist       Library code (src/) persists binary state only through the
                sanctioned crash-safe paths (data/io.{h,cc} bucket commit,
                data/manifest.{h,cc} AtomicWriteFile/JournalWriter).
                Direct `std::filesystem::rename`/`::rename` or a binary
                `std::ofstream` anywhere else can tear under power loss —
                exactly the corruption the checkpoint layer exists to
                survive. Text/report writers (CSV, traces, JSON exports)
                open without std::ios::binary and are not flagged.
  raw-signal    Library code (src/) never installs signal handlers with
                raw `signal()`/`sigaction()`: a handler constrains every
                line it can interrupt to the async-signal-safe subset,
                which pmkm_ctxcheck can only verify for the one sanctioned
                installer (obs/profiler.cc SIGPROF). Process-lifecycle
                wiring belongs in the CLI surface (tools/, e.g.
                pmkm_serve's sigwait), outside the library.
  direct-run    The retired free-function entry points
                RunPartialMergeStream / RunPartialMergeStreamInMemory must
                not reappear: every pipeline run goes through
                PipelineBuilder (stream/engine.h) so cancel tokens,
                observability sinks, resource budgets and checkpointing
                are wired in one place. Likewise, constructing the raw
                stream Executor outside the engine bypasses supervision;
                only stream/engine.cc and tests may build one directly.
  byte-codec    Library code (src/) packs and unpacks little-endian
                integers only through common/bytes.h (Put*/Store*/Load*,
                ByteReader), the one codec under model files, journal
                records and serve frames. A shift-and-cast byte store
                (`static_cast<uint8_t>(v >> 8)`) or load
                (`static_cast<uint32_t>(p[1]) << 8`) anywhere else is a
                private copy of it, free to drift from the others.
  raw-socket    Library code (src/) calls `::socket`, `::bind`, `::listen`
                and `::accept` only in common/net.cc. Every listener is a
                ConnectionServer (common/connection_server.h), which owns
                the accept loop, the io timeout, the handler pool and
                stop; a raw call elsewhere is a second listener, free to
                drift from the first.

Suppression: append `// pmkm-lint: allow(<rule>)` to the offending line
(or the line above) together with a comment justifying the exception.

Usage:
  tools/pmkm_lint.py [--root DIR] [--list-rules] [files...]

With no file arguments, lints the standard project surface under --root
(default: the repo containing this script). Registered as the `lint.pmkm`
ctest.

Exit codes follow the sysexits contract shared with pmkm_inspect and
pmkm_ctxcheck:
  0   clean
  64  usage error
  65  findings reported
  74  I/O error reading an input file
"""

import argparse
import os
import re
import sys

EX_OK, EX_USAGE, EX_DATAERR, EX_IOERR = 0, 64, 65, 74

# (rule id, human description) — keep in sync with the docstring.
RULES = {
    "raw-random": "randomness outside common/rng.h",
    "naked-new": "naked new/delete in library code",
    "stdio": "std::cout/std::cerr/printf in library code",
    "sleep": "sleep_for outside retry/fault code",
    "header-guard": "header guard missing or misnamed",
    "fault-site": "malformed PMKM_FAULT_POINT site name",
    "raw-sync": "raw std sync primitive outside the annotated wrappers",
    "raw-signal": "signal()/sigaction() outside the sanctioned installer",
    "persist": "binary persistence outside the crash-safe commit paths",
    "direct-run": "pipeline run outside PipelineBuilder (retired entry "
                  "points / raw Executor)",
    "byte-codec": "hand-rolled little-endian packing outside "
                  "common/bytes.h",
    "raw-socket": "socket/bind/listen/accept outside common/net.cc",
}

# Directories scanned when no explicit file list is given.
DEFAULT_DIRS = ("src", "tools", "bench", "tests", "examples", "fuzz")
SOURCE_EXTENSIONS = (".h", ".cc", ".cpp")

SUPPRESS_RE = re.compile(r"pmkm-lint:\s*allow\(([a-z\-]+(?:\s*,\s*[a-z\-]+)*)\)")

RNG_RE = re.compile(
    r"\b(?:rand|srand|random|srandom|rand_r|[demn]rand48|[jln]rand48|"
    r"srand48|seed48|lcong48)\s*\(|std::random_device|std::mt19937|"
    r"std::default_random_engine|std::minstd_rand|std::random_shuffle")
NEW_RE = re.compile(r"(?<![\w.:])new\b(?!\s*\()")
DELETE_RE = re.compile(r"(?<![\w.:])delete(?:\s*\[\s*\])?\s+[\w*(]")
STDIO_RE = re.compile(r"std::c(?:out|err)\b|(?<![\w.:])f?printf\s*\(")
SLEEP_RE = re.compile(
    r"std::this_thread::sleep_for|(?<![\w.:])(?:usleep|nanosleep)\s*\(")
RAW_SYNC_RE = re.compile(
    r"std::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b")
# Calls only: `struct sigaction act;` declarations do not match.
RAW_SIGNAL_RE = re.compile(
    r"(?<![\w.:])(?:signal|sigaction|bsd_signal|sysv_signal)\s*\(")
FAULT_POINT_RE = re.compile(r"PMKM_FAULT_POINT\s*\(\s*([^)]*)\)")
FAULT_SITE_RE = re.compile(r'^"[a-z0-9_]+(?:\.[a-z0-9_]+)+"$')
RENAME_RE = re.compile(
    r"std::filesystem::rename\b|(?<![\w.:])::rename\s*\(|"
    r"(?<![\w.:])std::rename\s*\(")
BINARY_OFSTREAM_RE = re.compile(
    r"std::ofstream\b[^;\n]*std::ios(?:_base)?::binary")
DIRECT_RUN_RE = re.compile(r"\bRunPartialMergeStream(?:InMemory)?\b")
RAW_EXECUTOR_RE = re.compile(r"\bExecutor\s+\w+\s*[({;]|\bExecutor\s*\(")
# A byte store `static_cast<uint8_t>(v >> 8)` or a byte load
# `static_cast<uint32_t>(p[1]) << 8`, for any whole-byte shift.
BYTE_SHIFT = r"(?:8|16|24|32|40|48|56)\b"
BYTE_CODEC_RE = re.compile(
    r"static_cast<u?int8_t>\([^()]*>>\s*" + BYTE_SHIFT + r"|"
    r"static_cast<u?int(?:16|32|64)_t>\(\s*[\w.>\-]+\s*\[[^\]]*\]\s*\)"
    r"\s*<<\s*" + BYTE_SHIFT)
# Global-scope calls only: `std::bind(` is not a socket call.
RAW_SOCKET_RE = re.compile(r"(?<![\w:])::(?:socket|bind|listen|accept)\s*\(")


def strip_comments_and_strings(text):
    """Returns `text` with comments and string/char literals blanked out
    (replaced by spaces), preserving line structure so line numbers hold.
    String literals become `""` so literal-shaped regexes still anchor."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
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
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
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
            elif c == "\n":  # unterminated; recover
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


def expected_guard(relpath):
    """PMKM_<PATH>_H_ with the path relative to src/ when inside it."""
    path = relpath
    if path.startswith("src" + os.sep):
        path = path[len("src" + os.sep):]
    stem = path[:-2] if path.endswith(".h") else path
    return "PMKM_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_H_"


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def suppressions_for(raw_lines, lineno):
    """Rules allowed on `lineno` (1-based) by a trailing or preceding
    `// pmkm-lint: allow(rule[, rule...])` comment."""
    allowed = set()
    for candidate in (lineno, lineno - 1):
        if 1 <= candidate <= len(raw_lines):
            m = SUPPRESS_RE.search(raw_lines[candidate - 1])
            if m:
                allowed.update(r.strip() for r in m.group(1).split(","))
    return allowed


def in_dir(relpath, *dirs):
    return any(
        relpath == d or relpath.startswith(d + os.sep) for d in dirs)


def lint_file(root, relpath):
    path = os.path.join(root, relpath)
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as err:
        return [Finding(relpath, 0, "io", f"cannot read: {err}")]

    findings = []
    raw_lines = text.splitlines()
    code_lines = strip_comments_and_strings(text).splitlines()
    fname = os.path.basename(relpath)

    def check(lineno, rule, message):
        if rule not in suppressions_for(raw_lines, lineno):
            findings.append(Finding(relpath, lineno, rule, message))

    is_src = in_dir(relpath, "src")
    # The annotated wrappers and the schedcheck layer *implement* the sync
    # abstraction; everything else in src/ must go through them.
    raw_sync_exempt = (
        relpath == os.path.join("src", "common", "annotations.h")
        or in_dir(relpath, os.path.join("src", "common", "schedcheck")))
    rng_exempt = relpath == os.path.join("src", "common", "rng.h")
    # The logging sink writes the final bytes to stderr — it *implements*
    # the logging abstraction. Schedcheck reports from inside the
    # deterministic scheduler and sits below logging in the link graph, so
    # it cannot call PMKM_LOG without a dependency cycle.
    stdio_exempt = (
        relpath in (os.path.join("src", "common", "logging.h"),
                    os.path.join("src", "common", "logging.cc"))
        or in_dir(relpath, os.path.join("src", "common", "schedcheck")))
    sleep_exempt = fname in ("retry.cc", "retry.h", "fault.cc", "fault.h")
    # The one sanctioned handler installer, the SIGPROF profiler; its
    # handler is verified by pmkm_ctxcheck.
    signal_exempt = relpath == os.path.join("src", "obs", "profiler.cc")
    net_file = relpath == os.path.join("src", "common", "net.cc")
    fault_def_file = relpath == os.path.join("src", "common", "fault.h")
    byte_codec_file = relpath == os.path.join("src", "common", "bytes.h")
    # The two modules that *implement* the crash-safe commit protocol.
    persist_exempt = relpath in (
        os.path.join("src", "data", "io.h"),
        os.path.join("src", "data", "io.cc"),
        os.path.join("src", "data", "manifest.h"),
        os.path.join("src", "data", "manifest.cc"))
    # The engine owns the Executor; operator.{h,cc} declare/implement it;
    # tests may drive it directly to exercise supervision paths.
    raw_exec_exempt = (
        in_dir(relpath, "tests")
        or relpath in (os.path.join("src", "stream", "engine.cc"),
                       os.path.join("src", "stream", "operator.h"),
                       os.path.join("src", "stream", "operator.cc")))

    for lineno, line in enumerate(code_lines, start=1):
        if not rng_exempt and RNG_RE.search(line):
            check(lineno, "raw-random",
                  "unseeded randomness; draw from common/rng.h Rng instead")
        if is_src:
            if NEW_RE.search(line):
                check(lineno, "naked-new",
                      "naked new; use std::make_unique/containers")
            if DELETE_RE.search(line):
                check(lineno, "naked-new",
                      "naked delete; use RAII ownership")
            if not stdio_exempt and STDIO_RE.search(line):
                check(lineno, "stdio",
                      "direct stdout/stderr in library code; use PMKM_LOG")
            if not sleep_exempt and SLEEP_RE.search(line):
                check(lineno, "sleep",
                      "sleep in library code; only retry/fault code may "
                      "sleep")
            if not raw_sync_exempt and RAW_SYNC_RE.search(line):
                check(lineno, "raw-sync",
                      "raw std sync primitive; use the annotated Mutex/"
                      "MutexLock/CondVar from common/annotations.h")
            if not signal_exempt and RAW_SIGNAL_RE.search(line):
                check(lineno, "raw-signal",
                      "signal handler installed outside the sanctioned "
                      "installer (obs/profiler.cc); wire process signals "
                      "in tools/ instead")
            if not net_file and RAW_SOCKET_RE.search(line):
                check(lineno, "raw-socket",
                      "raw socket call outside common/net.cc; listen "
                      "through ConnectionServer (common/connection_server.h)")
            if not byte_codec_file and BYTE_CODEC_RE.search(line):
                check(lineno, "byte-codec",
                      "hand-rolled little-endian packing; use the "
                      "common/bytes.h codec (Put*/Store*/Load*, ByteReader)")
            if not persist_exempt:
                if RENAME_RE.search(line):
                    check(lineno, "persist",
                          "direct rename; publish through data/manifest.h "
                          "AtomicWriteFile or the bucket commit path")
                if BINARY_OFSTREAM_RE.search(line):
                    check(lineno, "persist",
                          "binary ofstream outside the crash-safe commit "
                          "paths; use AtomicWriteFile/JournalWriter")
        if DIRECT_RUN_RE.search(line):
            check(lineno, "direct-run",
                  "retired RunPartialMergeStream* entry point; run "
                  "through PipelineBuilder (stream/engine.h)")
        if not raw_exec_exempt and RAW_EXECUTOR_RE.search(line):
            check(lineno, "direct-run",
                  "raw Executor outside the engine; run pipelines "
                  "through PipelineBuilder (stream/engine.h)")
        if not fault_def_file:
            for m in FAULT_POINT_RE.finditer(line):
                # Re-read the argument from the raw line: literals were
                # blanked in the stripped text.
                raw_match = FAULT_POINT_RE.search(raw_lines[lineno - 1])
                arg = (raw_match.group(1) if raw_match else m.group(1)).strip()
                if not FAULT_SITE_RE.match(arg):
                    check(lineno, "fault-site",
                          f"site must be a literal \"component.action\" "
                          f"(lowercase dotted), got: {arg or '<empty>'}")

    if fname.endswith(".h"):
        findings.extend(
            lint_header_guard(relpath, raw_lines, code_lines))

    return findings


def lint_header_guard(relpath, raw_lines, code_lines):
    findings = []
    guard = expected_guard(relpath)
    ifndef = None
    define = None
    for lineno, line in enumerate(code_lines, start=1):
        stripped = line.strip()
        if stripped.startswith("#pragma once"):
            if "header-guard" not in suppressions_for(raw_lines, lineno):
                findings.append(Finding(
                    relpath, lineno, "header-guard",
                    f"#pragma once; use #ifndef {guard} for consistency"))
            return findings
        if ifndef is None:
            m = re.match(r"#\s*ifndef\s+(\w+)", stripped)
            if m:
                ifndef = (lineno, m.group(1))
                continue
        elif define is None:
            m = re.match(r"#\s*define\s+(\w+)", stripped)
            if m:
                define = (lineno, m.group(1))
                break
    if ifndef is None or define is None:
        findings.append(Finding(
            relpath, 1, "header-guard",
            f"missing include guard; expected #ifndef {guard}"))
        return findings
    if ifndef[1] != guard:
        if "header-guard" not in suppressions_for(raw_lines, ifndef[0]):
            findings.append(Finding(
                relpath, ifndef[0], "header-guard",
                f"guard '{ifndef[1]}' should be '{guard}'"))
    elif define[1] != guard:
        findings.append(Finding(
            relpath, define[0], "header-guard",
            f"#define '{define[1]}' does not match guard '{guard}'"))
    return findings


def collect_files(root, args_files):
    if args_files:
        for f in args_files:
            yield os.path.relpath(os.path.abspath(f), root)
        return
    for d in DEFAULT_DIRS:
        top = os.path.join(root, d)
        if not os.path.isdir(top):
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(
                n for n in dirnames if not n.startswith("."))
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTENSIONS):
                    yield os.path.relpath(
                        os.path.join(dirpath, name), root)


class SysexitsParser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the pmkm tools contract is 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def main(argv=None):
    parser = SysexitsParser(
        prog="pmkm_lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--root", default=os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of this script)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule ids and exit")
    parser.add_argument("files", nargs="*",
                        help="specific files to lint (default: project)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, description in RULES.items():
            print(f"{rule:14} {description}")
        return EX_OK

    root = os.path.abspath(args.root)
    findings = []
    checked = 0
    for relpath in collect_files(root, args.files):
        checked += 1
        findings.extend(lint_file(root, relpath))

    for finding in findings:
        print(finding)
    status = "FAILED" if findings else "OK"
    print(f"pmkm_lint: {status} — {checked} files checked, "
          f"{len(findings)} finding(s)")
    if any(f.rule == "io" for f in findings):
        return EX_IOERR
    return EX_DATAERR if findings else EX_OK


if __name__ == "__main__":
    sys.exit(main())
