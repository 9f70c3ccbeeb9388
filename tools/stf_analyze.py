#!/usr/bin/env python3
"""Static analyzer for the signature-test framework: project conventions
plus the determinism/reproducibility contract.

Runs as a CTest test (the stf_lint entry in the top-level CMakeLists) and
standalone:

    python3 tools/stf_analyze.py [repo-root] [options]

Options:
    --json [PATH]       write findings as JSON to PATH (default: stdout)
    --baseline PATH     baseline file (default: tools/stf_analyze_baseline.json)
    --write-baseline    rewrite the baseline from the current findings
    --list-rules        print the rule registry and exit

The analyzer is tokenizer-aware: every rule matches against code with
comments and string/char literals blanked out, so a banned identifier inside
a comment, a doc string or an error message never fires. (The predecessor,
a line-regex linter named stf_lint, stripped only '//' comments and could be
fooled by block comments and literals.)

Rule registry (see DESIGN.md "Static analysis contract" for how to add one):

  Conventions (carried over from stf_lint):
    header-doc        public headers open with a file-level // doc comment
    pragma-once       headers start with #pragma once
    include-order     a .cpp includes its own header first
    no-rand           no rand()/srand() (use stf::stats::Rng) and no
                      printf-family (use iostreams) in src/
    checked-access    .front()/.back() only near an emptiness guard
    test-coverage     every src/<mod>/<name>.cpp is referenced from tests/
    raw-thread        no std::thread/std::async/pthread_create outside
                      src/core/ (the pool owns every worker thread) and
                      src/service/ (whose accept and reader threads are
                      bounded by its connection cap and compute slots)
    no-empty-catch    no empty `catch (...) {}` outside src/core/
    blocking-io-confinement
                      raw socket/poll syscalls (and their headers) only in
                      src/net/ -- net::Socket/Listener own every file
                      descriptor so the bounded-I/O + typed-SocketError
                      contract stays auditable in one place
    file-io-confinement
                      fstream/filesystem/fopen (and the <fstream> /
                      <filesystem> headers) only in src/store/ -- the
                      CalibrationStore owns all persistence so atomic
                      writes and typed parse errors stay in one place

  Determinism contract (new):
    nondet-source     no std::random_device / time-of-day / wall-clock
                      sources outside src/core/telemetry -- every random or
                      temporal input must be a seeded Rng stream or an
                      explicit parameter, or replay breaks
    pointer-order     no pointer-keyed ordered containers, pointer
                      comparators or pointer hashing -- pointer values vary
                      run to run, so any order or hash derived from them is
                      nondeterministic
    unordered-export  no iteration over unordered containers that feeds
                      serialized/exported output (streams, string building,
                      thrown diagnostics) -- export order would depend on
                      the hash seed; copy into a sorted container first
    raw-mutex         src/core and src/dsp use stf::core::Mutex/LockGuard
                      (annotated for Clang thread-safety analysis) instead
                      of bare std::mutex/std::lock_guard, so new guarded
                      state stays visible to -Wthread-safety
    api-contract      public API entry points defined in src/ (declared in
                      the unit's header, nontrivial body, at least one
                      parameter) open with an STF_REQUIRE/STF_ASSERT
                      contract validating their inputs
    contract-side-effect
                      no side effect inside an STF_REQUIRE/STF_ENSURE/
                      STF_ASSERT/STF_ASSERT_FINITE condition (++/--, an
                      assignment, a mutating member call) -- a
                      SIGTEST_CHECKED=OFF build compiles the condition out
                      and the side effect with it

Suppressions: append `// stf-analyze: allow(rule-a, rule-b)` to the finding
line, or put it in a comment on the line directly above. Every suppression
should carry a short justification after the closing parenthesis. The legacy
`// stf-lint: checked` escape is honored for checked-access.

Baseline: findings listed in the baseline file are reported as "baselined"
and do not fail the run. The committed baseline is empty -- the codebase is
clean -- and should stay empty; the mechanism exists so a future rule can
land before its sweep finishes without turning CI red.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

# ---------------------------------------------------------------------------
# Lexer: blank comments and literals, collect suppression comments
# ---------------------------------------------------------------------------

SUPPRESS_RE = re.compile(r"stf-analyze:\s*allow\(([^)]*)\)")
LEGACY_SUPPRESS_RE = re.compile(r"stf-lint:\s*checked")


def lex(text: str) -> tuple[list[str], dict[int, set[str]]]:
    """Split source text into code-only lines and per-line suppressions.

    Returns (code_lines, suppressed) where code_lines[i] is line i+1 with
    comments and string/char literal *contents* replaced by spaces (the
    quotes survive, so regexes still see e.g. an empty call argument), and
    suppressed maps a 1-based line number to the set of rule names allowed
    on that line. A suppression comment covers its own line and the line
    below it, so a comment-only line can shield the statement that follows.
    """
    code: list[str] = []
    comments: list[str] = []  # comment text per line, for suppression scan
    cur_code: list[str] = []
    cur_comment: list[str] = []
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            if state == "line_comment":
                state = "code"
            code.append("".join(cur_code))
            comments.append("".join(cur_comment))
            cur_code, cur_comment = [], []
            i += 1
            continue
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if c == '"':
                # Raw string literal R"delim( ... )delim"
                if cur_code and cur_code[-1] == "R" and re.search(
                        r"(?:^|[^\w])R$", "".join(cur_code)):
                    m = re.match(r'"([^ ()\\\t\n]*)\(', text[i:])
                    if m:
                        state = "raw"
                        raw_delim = ")" + m.group(1) + '"'
                        cur_code.append('"')
                        i += 1 + len(m.group(1)) + 1
                        continue
                state = "string"
                cur_code.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                cur_code.append("'")
                i += 1
                continue
            cur_code.append(c)
            i += 1
            continue
        if state == "line_comment":
            cur_comment.append(c)
            i += 1
            continue
        if state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
            else:
                cur_comment.append(c)
                i += 1
            continue
        if state == "string":
            if c == "\\":
                i += 2
            elif c == '"':
                cur_code.append('"')
                state = "code"
                i += 1
            else:
                i += 1
            continue
        if state == "char":
            if c == "\\":
                i += 2
            elif c == "'":
                cur_code.append("'")
                state = "code"
                i += 1
            else:
                i += 1
            continue
        # state == "raw"
        if text.startswith(raw_delim, i):
            cur_code.append('"')
            state = "code"
            i += len(raw_delim)
        else:
            i += 1
    code.append("".join(cur_code))
    comments.append("".join(cur_comment))

    suppressed: dict[int, set[str]] = {}
    for idx, comment in enumerate(comments):
        rules: set[str] = set()
        for m in SUPPRESS_RE.finditer(comment):
            rules.update(r.strip() for r in m.group(1).split(",") if r.strip())
        if LEGACY_SUPPRESS_RE.search(comment):
            rules.add("checked-access")
        if rules:
            # The comment covers its own line and the one below it.
            for line_no in (idx + 1, idx + 2):
                suppressed.setdefault(line_no, set()).update(rules)
    return code, suppressed


# ---------------------------------------------------------------------------
# Analysis context and findings
# ---------------------------------------------------------------------------


@dataclass
class SourceFile:
    path: Path          # absolute
    rel: str            # posix path relative to the repo root
    raw_lines: list[str]
    code_lines: list[str]
    suppressed: dict[int, set[str]]

    @property
    def is_header(self) -> bool:
        return self.path.suffix == ".hpp"

    def in_dir(self, name: str) -> bool:
        return self.path.parent.name == name


@dataclass
class Finding:
    rule: str
    file: str           # repo-relative posix path
    line: int           # 1-based; 0 for file-level findings
    message: str
    severity: str = "error"
    baselined: bool = False

    def key(self) -> str:
        """Baseline identity: stable across unrelated line shifts."""
        digest = hashlib.sha256(
            f"{self.rule}|{self.file}|{self.message}".encode()).hexdigest()
        return digest[:16]

    def render(self) -> str:
        loc = f"{self.file}:{self.line}" if self.line else self.file
        tag = " [baselined]" if self.baselined else ""
        return f"{loc}: {self.rule}: {self.message}{tag}"


@dataclass
class Context:
    root: Path
    files: list[SourceFile] = field(default_factory=list)

    @property
    def headers(self) -> list[SourceFile]:
        return [f for f in self.files if f.is_header]

    @property
    def sources(self) -> list[SourceFile]:
        return [f for f in self.files if not f.is_header]


@dataclass
class Rule:
    name: str
    severity: str
    doc: str
    check: object  # callable(Context) -> iterable[Finding]


RULES: list[Rule] = []


def rule(name: str, severity: str = "error", doc: str = ""):
    """Register an analyzer rule; the decorated callable yields Findings."""

    def wrap(fn):
        RULES.append(Rule(name, severity, doc or (fn.__doc__ or "").strip(),
                          fn))
        return fn

    return wrap


def allowed(f: SourceFile, line_no: int, rule_name: str) -> bool:
    return rule_name in f.suppressed.get(line_no, ())


# ---------------------------------------------------------------------------
# Convention rules (carried over from stf_lint.py, now tokenizer-aware)
# ---------------------------------------------------------------------------


@rule("header-doc")
def check_header_doc(ctx: Context):
    """Public headers open with a file-level // doc comment."""
    for f in ctx.headers:
        for raw in f.raw_lines:
            text = raw.strip()
            if not text:
                continue
            if text.startswith("//"):
                break
            yield Finding("header-doc", f.rel, 1,
                          "public header must open with a file-level '//' "
                          "doc comment describing the unit")
            break


@rule("pragma-once")
def check_pragma_once(ctx: Context):
    """Headers start with #pragma once (after the doc comment)."""
    for f in ctx.headers:
        ok = False
        for code in f.code_lines:
            text = code.strip()
            if not text:
                continue
            ok = text.startswith("#pragma once")
            break
        if not ok:
            yield Finding("pragma-once", f.rel, 1,
                          "header must start with #pragma once")


INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')


@rule("include-order")
def check_include_order(ctx: Context):
    """A .cpp includes its own header first."""
    for f in ctx.sources:
        own_header = f.path.with_suffix(".hpp")
        if not own_header.exists():
            continue  # e.g. a main-only translation unit
        expected = f"{f.path.parent.name}/{own_header.name}"
        # Includes live in raw text (the lexer blanks the quoted literal).
        for idx, raw in enumerate(f.raw_lines):
            m = INCLUDE_RE.match(raw)
            if not m:
                continue
            if m.group(1) != expected and not allowed(f, idx + 1,
                                                      "include-order"):
                yield Finding(
                    "include-order", f.rel, idx + 1,
                    f"first include must be the unit's own header "
                    f'"{expected}", found "{m.group(1)}"')
            break
        else:
            yield Finding("include-order", f.rel, 0,
                          f'no quoted include found; expected "{expected}" '
                          "first")


BANNED_CALL_RE = re.compile(r"\b(rand|srand|printf|fprintf|sprintf)\s*\(")


@rule("no-rand")
def check_banned_calls(ctx: Context):
    """No rand()/srand() (use stf::stats::Rng) and no printf-family."""
    for f in ctx.files:
        for idx, code in enumerate(f.code_lines):
            m = BANNED_CALL_RE.search(code)
            if m and not allowed(f, idx + 1, "no-rand"):
                hint = ("use stf::stats::Rng"
                        if m.group(1) in ("rand", "srand") else
                        "use iostreams")
                yield Finding("no-rand", f.rel, idx + 1,
                              f"call to {m.group(1)}() in src/ ({hint})")


GUARD_WINDOW = 15
GUARD_RE = re.compile(r"empty\s*\(")
ACCESS_RE = re.compile(r"\.\s*(?:front|back)\s*\(\s*\)")


@rule("checked-access")
def check_front_back(ctx: Context):
    """.front()/.back() only near an emptiness guard.

    Heuristic: the access is accepted when "empty(" appears on the same line
    or in the GUARD_WINDOW lines above it. A guard further away is worth
    re-stating with STF_ASSERT anyway.
    """
    for f in ctx.files:
        for idx, code in enumerate(f.code_lines):
            if not ACCESS_RE.search(code):
                continue
            if allowed(f, idx + 1, "checked-access"):
                continue
            lo = max(0, idx - GUARD_WINDOW)
            if any(GUARD_RE.search(w) for w in f.code_lines[lo:idx + 1]):
                continue
            yield Finding(
                "checked-access", f.rel, idx + 1,
                ".front()/.back() without a nearby emptiness guard; add a "
                "check or an STF_REQUIRE/STF_ASSERT (or '// stf-analyze: "
                "allow(checked-access)' with a justification)")


@rule("test-coverage")
def check_test_coverage(ctx: Context):
    """Every src/<mod>/<name>.cpp has its header referenced under tests/."""
    tests_dir = ctx.root / "tests"
    blob = "\n".join(
        p.read_text(errors="replace")
        for p in sorted(tests_dir.rglob("*.cpp")))
    for f in ctx.sources:
        header = f"{f.path.parent.name}/{f.path.stem}.hpp"
        if header not in blob:
            yield Finding("test-coverage", f.rel, 0,
                          f"no file under tests/ references {header}")


RAW_THREAD_RE = re.compile(
    r"\bstd\s*::\s*(thread|jthread|async)\b|\bpthread_create\s*\(")


@rule("raw-thread")
def check_raw_threads(ctx: Context):
    """No ad-hoc threads outside src/core/ and src/service/.

    The parallel execution core owns every worker thread in the process;
    threading elsewhere would bypass STF_THREADS, the nested-region inlining
    that prevents pool deadlock, and the determinism contract. The service
    layer is the second sanctioned home: one accept thread and one reader
    per session, capped by max_clients. A reader runs its session's lots
    through TestCell::test_lot, which dispatches onto the core pool like
    any other caller, and the admission gate's compute slots bound how many
    lots run at once.
    """
    for f in ctx.files:
        if f.in_dir("core") or f.in_dir("service"):
            continue
        for idx, code in enumerate(f.code_lines):
            m = RAW_THREAD_RE.search(code)
            if m and not allowed(f, idx + 1, "raw-thread"):
                yield Finding(
                    "raw-thread", f.rel, idx + 1,
                    f"{m.group(0).strip()} outside src/core/ and "
                    "src/service/; use stf::core::parallel_for")


# Raw socket/poll syscalls and the headers that provide them. `send`/`recv`
# etc. are matched as free calls only -- the lexer already blanked strings,
# and the negative lookbehind skips member calls (socket.send_all) and
# qualified names (stf::net::poll_for).
BLOCKING_IO_RE = re.compile(
    r"(?<![\w.:>])"
    r"(?:::\s*)?"
    r"(socket|accept4?|connect|bind|listen|recv|recvfrom|recvmsg"
    r"|send|sendto|sendmsg|poll|ppoll|select|pselect"
    r"|epoll_(?:create1?|ctl|wait)|setsockopt|getsockopt|getsockname"
    r"|inet_pton|inet_ntop)\s*\(")

BLOCKING_IO_HEADER_RE = re.compile(
    r"#\s*include\s*<(sys/socket\.h|sys/epoll\.h|poll\.h|netinet/[\w./]+"
    r"|arpa/inet\.h|netdb\.h)>")


@rule("blocking-io-confinement")
def check_blocking_io_confinement(ctx: Context):
    """Raw socket/poll I/O lives in src/net/ only.

    The service's overload-safety story depends on every blocking call
    being bounded (timeouts, poll intervals, EINTR retries) and every
    syscall failure becoming a typed SocketError. That discipline is
    auditable only while the syscall surface stays in one place:
    net::Socket/Listener own the file descriptors; everything else speaks
    frames. A raw socket(2)/poll(2) call -- or the headers providing them
    -- anywhere else bypasses the bounded-I/O contract.
    """
    for f in ctx.files:
        if f.in_dir("net"):
            continue
        for idx, code in enumerate(f.code_lines):
            m = BLOCKING_IO_RE.search(code)
            if m is None:
                m = BLOCKING_IO_HEADER_RE.search(code)
            if m and not allowed(f, idx + 1, "blocking-io-confinement"):
                yield Finding(
                    "blocking-io-confinement", f.rel, idx + 1,
                    f"raw I/O {m.group(1)} outside src/net/; route "
                    "sockets through net::Socket and net::Listener")


FILE_IO_RE = re.compile(
    r"(?<![\w:.>])(std::(?:i|o)?fstream|std::filesystem"
    r"|fopen|freopen|tmpfile|mkstemp)\s*[(<{:\s]")

FILE_IO_HEADER_RE = re.compile(r"#\s*include\s*<(fstream|filesystem)>")


@rule("file-io-confinement")
def check_file_io_confinement(ctx: Context):
    """Filesystem access lives in src/store/ only.

    The store is the one component allowed to touch disk, and it pays for
    the privilege: atomic temp-then-rename writes, length-prefixed framing,
    typed errors on every corrupt byte. A stray ofstream in another module
    gets none of that -- a crash mid-write leaves a half file nothing can
    parse, and replay determinism quietly gains a hidden input. Pipeline
    code computes; persistence goes through CalibrationStore (or stays in
    tools/, examples/ and tests/, which this rule does not scan).
    """
    for f in ctx.files:
        if f.in_dir("store"):
            continue
        for idx, code in enumerate(f.code_lines):
            m = FILE_IO_RE.search(code)
            if m is None:
                m = FILE_IO_HEADER_RE.search(code)
            if m and not allowed(f, idx + 1, "file-io-confinement"):
                yield Finding(
                    "file-io-confinement", f.rel, idx + 1,
                    f"file I/O {m.group(1)} outside src/store/; persist "
                    "through store::CalibrationStore")


EMPTY_CATCH_RE = re.compile(r"catch\s*\(\s*\.\.\.\s*\)\s*\{\s*\}")


@rule("no-empty-catch")
def check_empty_catch(ctx: Context):
    """No empty `catch (...) {}` outside src/core/.

    Silently swallowing every exception hides contract violations the
    guarded test must surface as typed dispositions. The pool-teardown
    catches in src/core/ are the single sanctioned exception.
    """
    for f in ctx.files:
        if f.in_dir("core"):
            continue
        code = "\n".join(f.code_lines)
        for m in EMPTY_CATCH_RE.finditer(code):
            line_no = code.count("\n", 0, m.start()) + 1
            if not allowed(f, line_no, "no-empty-catch"):
                yield Finding(
                    "no-empty-catch", f.rel, line_no,
                    "empty 'catch (...)' outside src/core/; handle the "
                    "error, translate it, or let it propagate")


# ---------------------------------------------------------------------------
# Determinism rules
# ---------------------------------------------------------------------------

NONDET_RE = re.compile(
    r"std\s*::\s*random_device"
    r"|std\s*::\s*chrono\s*::\s*(?:system_clock|high_resolution_clock"
    r"|steady_clock)"
    r"|\bgettimeofday\s*\("
    r"|\bclock\s*\(\s*\)"
    r"|(?:\bstd\s*::\s*|::\s*)time\s*\("
    r"|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)")


@rule("nondet-source")
def check_nondet_sources(ctx: Context):
    """No nondeterministic randomness/time sources outside src/core/telemetry.

    Reproducibility is the framework's headline guarantee: a (seed, lot,
    scenario) must produce bit-identical dispositions on every run and
    thread count. Randomness must come from stf::stats::Rng streams and
    time must be an explicit parameter; the telemetry clock (steady_clock
    in core/telemetry.cpp) is the single sanctioned wall-clock reader and
    never feeds a disposition.
    """
    for f in ctx.files:
        if f.path.parent.name == "core" and f.path.stem == "telemetry":
            continue
        for idx, code in enumerate(f.code_lines):
            m = NONDET_RE.search(code)
            if m and not allowed(f, idx + 1, "nondet-source"):
                yield Finding(
                    "nondet-source", f.rel, idx + 1,
                    f"nondeterministic source {m.group(0).strip()} outside "
                    "src/core/telemetry; derive randomness from "
                    "stf::stats::Rng and take time as a parameter")


POINTER_ORDER_RE = re.compile(
    r"std\s*::\s*(?:multi)?(?:map|set)\s*<\s*[\w:\s]+\*"
    r"|std\s*::\s*unordered_(?:multi)?(?:map|set)\s*<\s*[\w:\s]+\*"
    r"|std\s*::\s*(?:less|greater)\s*<\s*[\w:\s]+\*\s*>"
    r"|std\s*::\s*hash\s*<\s*[\w:\s]+\*\s*>")


@rule("pointer-order")
def check_pointer_order(ctx: Context):
    """No pointer-keyed containers, pointer comparators or pointer hashing.

    Pointer values change run to run (ASLR, allocation order), so any
    ordering or hash derived from them is nondeterministic. Key on a stable
    identity (index, name, id) instead.
    """
    for f in ctx.files:
        for idx, code in enumerate(f.code_lines):
            m = POINTER_ORDER_RE.search(code)
            if m and not allowed(f, idx + 1, "pointer-order"):
                yield Finding(
                    "pointer-order", f.rel, idx + 1,
                    f"pointer-value ordering/hashing ({m.group(0).strip()}); "
                    "key on a stable identity (index, name, id) instead")


UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:multi)?(?:map|set)\s*<[^;{}]*>[&\s]+(\w+)\s*[;,={)]")
UNORDERED_ALIAS_RE = re.compile(
    r"using\s+(\w+)\s*=\s*std\s*::\s*unordered_(?:multi)?(?:map|set)\b")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*:\s*([\w.\->]+)\s*\)")
EXPORTISH_RE = re.compile(r"<<|\bthrow\b|\+=\s*\w|\.append\s*\(")
EXPORT_WINDOW = 6


@rule("unordered-export")
def check_unordered_export(ctx: Context):
    """No unordered-container iteration feeding serialized/exported output.

    Iterating an unordered map/set visits elements in hash order, which
    varies with the hash seed and element history. When such a loop writes
    to a stream, builds a string, or throws (the diagnostic names whichever
    element came first), the output is nondeterministic. Copy the elements
    into a sorted container (std::map, sorted vector) before exporting.
    """
    # Pass 1, repo-wide: names of variables/members/params with an unordered
    # type, plus user aliases of unordered containers and variables declared
    # through those aliases.
    aliases: set[str] = set()
    for f in ctx.files:
        for code in f.code_lines:
            for m in UNORDERED_ALIAS_RE.finditer(code):
                aliases.add(m.group(1))
    unordered_names: set[str] = set()
    alias_decl_res = [
        re.compile(r"\b" + re.escape(a) + r"[&\s]+(\w+)\s*[;,={)]")
        for a in aliases
    ]
    for f in ctx.files:
        for code in f.code_lines:
            for m in UNORDERED_DECL_RE.finditer(code):
                unordered_names.add(m.group(1))
            for decl_re in alias_decl_res:
                for m in decl_re.finditer(code):
                    unordered_names.add(m.group(1))

    # Pass 2: range-fors whose sequence resolves (by final path component)
    # to an unordered name, with export-ish statements in the loop window.
    for f in ctx.files:
        for idx, code in enumerate(f.code_lines):
            m = RANGE_FOR_RE.search(code)
            if not m:
                continue
            seq = re.split(r"\.|->", m.group(1))[-1]
            if seq not in unordered_names:
                continue
            if allowed(f, idx + 1, "unordered-export"):
                continue
            # Loop body extent: a single-statement body (`for (...) stmt;` on
            # one line) is just that statement; otherwise scan a fixed window
            # of following lines (braces are not tracked -- the window errs
            # toward catching an export a few lines into the block).
            rest = code[m.end():]
            if ";" in rest and "{" not in rest:
                body = [rest]
            else:
                body = [rest] + f.code_lines[idx + 1:idx + 1 + EXPORT_WINDOW]
            if any(EXPORTISH_RE.search(w) for w in body):
                yield Finding(
                    "unordered-export", f.rel, idx + 1,
                    f"iteration over unordered container '{seq}' feeds "
                    "serialized or exported output; copy into a sorted "
                    "container first")


RAW_MUTEX_RE = re.compile(
    r"std\s*::\s*(?:mutex|shared_mutex|recursive_mutex)\s+\w"
    r"|std\s*::\s*(?:lock_guard|unique_lock|scoped_lock)\s*<")


@rule("raw-mutex")
def check_raw_mutex(ctx: Context):
    """src/core and src/dsp lock through the annotated wrappers.

    stf::core::Mutex / LockGuard / UniqueLock (core/annotations.hpp) carry
    Clang thread-safety attributes; bare std::mutex state is invisible to
    -Wthread-safety, so new guarded state in the concurrency core must use
    the wrappers. Other modules are exempt until they grow shared state.
    """
    for f in ctx.files:
        if not (f.in_dir("core") or f.in_dir("dsp")):
            continue
        if f.path.name == "annotations.hpp":
            continue  # the wrapper itself owns the std types
        for idx, code in enumerate(f.code_lines):
            m = RAW_MUTEX_RE.search(code)
            if m and not allowed(f, idx + 1, "raw-mutex"):
                yield Finding(
                    "raw-mutex", f.rel, idx + 1,
                    f"{m.group(0).strip()} in the concurrency core; use "
                    "stf::core::Mutex/LockGuard/UniqueLock from "
                    "core/annotations.hpp so -Wthread-safety sees the lock")


SIMD_INCLUDE_RE = re.compile(
    r"#\s*include\s*<(?:immintrin|x86intrin|emmintrin|xmmintrin|arm_neon)"
    r"\.h>")
SIMD_TOKEN_RE = re.compile(
    r"\b_mm(?:256|512)?_\w+|\b__m(?:128|256|512)[di]?\b"
    r"|\bv(?:ld|st)1q?_\w+|\bfloat64x[12]_t\b")


@rule("simd-confinement")
def check_simd_confinement(ctx: Context):
    """Raw SIMD intrinsics live only in src/core/simd.hpp.

    The bit-exactness contract (DESIGN.md section 12) holds because every
    vectorized kernel goes through the simd::pack abstraction, whose scalar
    backend is the reference implementation. An intrinsic header or an
    _mm_/vld1q_ token anywhere else creates an ISA-specific code path with
    no scalar twin and no STF_SIMD kill switch, so the wrapper header is
    the single sanctioned home for them.
    """
    for f in ctx.files:
        if f.in_dir("core") and f.path.name == "simd.hpp":
            continue
        for idx, code in enumerate(f.code_lines):
            m = SIMD_INCLUDE_RE.search(code) or SIMD_TOKEN_RE.search(code)
            if m and not allowed(f, idx + 1, "simd-confinement"):
                yield Finding(
                    "simd-confinement", f.rel, idx + 1,
                    f"raw SIMD intrinsic '{m.group(0).strip()}' outside "
                    "core/simd.hpp; use the simd::pack abstraction so the "
                    "kernel keeps a scalar reference twin and honors the "
                    "STF_SIMD kill switch")


# A function definition at namespace/class scope: return type + name + '('.
# Intentionally loose; candidates are filtered by the header cross-check.
FUNC_DEF_RE = re.compile(
    r"^(?:[\w:<>,&*~\s]+?[\s&*])?((?:\w+::)*\w+)\s*\(")
CONTRACT_RE = re.compile(
    r"STF_REQUIRE|STF_ASSERT|STF_ENSURE|\bvalidate\w*\s*\(|throw\s")
API_CONTRACT_MIN_BODY = 8


@rule("api-contract")
def check_api_contract(ctx: Context):
    """Public API entry points open with an input-validating contract.

    An entry point here is a function defined in a src/ .cpp, declared in
    the unit's own header, taking at least one parameter, with a nontrivial
    body (>= API_CONTRACT_MIN_BODY code lines). Its body must validate its
    inputs: an STF_REQUIRE/STF_ASSERT/STF_ENSURE, a call into a validate
    helper, or an explicit throw. Trivial accessors and forwarders are
    exempt by the size threshold; a function whose inputs genuinely need no
    validation can say so with
    `// stf-analyze: allow(api-contract) -- <why>`.
    """
    headers_by_dir: dict[Path, str] = {}
    for f in ctx.sources:
        own_header = f.path.with_suffix(".hpp")
        if not own_header.exists():
            continue
        if own_header not in headers_by_dir:
            headers_by_dir[own_header] = own_header.read_text(
                errors="replace")
        header_text = headers_by_dir[own_header]

        lines = f.code_lines
        idx = 0
        while idx < len(lines):
            line = lines[idx]
            # A definition opens a brace on this or the next two lines and
            # sits at indentation zero (namespace scope after clang-format).
            if not line or line[0] in " \t#}/":
                idx += 1
                continue
            m = FUNC_DEF_RE.match(line)
            if not m or ";" in line.split("(")[0]:
                idx += 1
                continue
            name = m.group(1).split("::")[-1]
            # Find the opening brace and the parameter list.
            sig = line
            j = idx
            while "{" not in sig and ";" not in sig and j + 1 < len(lines) \
                    and j - idx < 6:
                j += 1
                sig += " " + lines[j].strip()
            if "{" not in sig or ";" in sig.split("{")[0]:
                idx += 1
                continue
            params = sig.split("(", 1)[1].split(")")[0].strip()
            if "}" in sig.split("{", 1)[1]:
                # Whole body inline on the signature line ({} ctors,
                # one-line forwarders): trivially below the size floor.
                idx = j + 1
                continue
            body_start = j + 1
            # Body extent: to the next column-zero closing brace.
            k = body_start
            while k < len(lines) and not lines[k].startswith("}"):
                k += 1
            body = lines[body_start:k]
            idx_next = k + 1

            declared = re.search(r"\b" + re.escape(name) + r"\s*\(",
                                 header_text) is not None
            body_code = [b for b in body if b.strip()]
            if (declared and params and params != "void"
                    and len(body_code) >= API_CONTRACT_MIN_BODY
                    and not any(CONTRACT_RE.search(b) for b in [sig] + body)
                    and not allowed(f, idx + 1, "api-contract")):
                yield Finding(
                    "api-contract", f.rel, idx + 1,
                    f"public entry point '{name}' has no input contract; "
                    "open with STF_REQUIRE (see core/contracts.hpp) or "
                    "suppress with a justification")
            idx = idx_next


CONTRACT_CALL_RE = re.compile(
    r"\b(STF_REQUIRE|STF_ENSURE|STF_ASSERT|STF_ASSERT_FINITE)\s*\(")
SIDE_EFFECT_RE = re.compile(
    r"\+\+|--"
    r"|(?:<<|>>|[-+*/%&|^])="
    r"|(?<![=!<>\[])=(?!=)"
    r"|(?:\.|->)\s*(exchange|fetch_\w+|compare_exchange_\w+|store"
    r"|push(?:_back|_front)?|emplace(?:_back|_front|_hint)?"
    r"|pop(?:_back|_front)?|insert|erase|clear|reset|release|lock)"
    r"\s*\(")


def macro_arguments(code: str, open_paren: int) -> list[str]:
    """Split the argument list whose '(' is at code[open_paren] on its
    top-level commas."""
    args: list[str] = []
    depth = 0
    start = open_paren + 1
    for i in range(open_paren, len(code)):
        c = code[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                break
        elif c == "," and depth == 1:
            args.append(code[start:i])
            start = i + 1
    args.append(code[start:i])
    return args


@rule("contract-side-effect")
def check_contract_side_effect(ctx: Context):
    """No side effect inside a contract condition.

    A -DSIGTEST_CHECKED=OFF build names a contract's condition only inside
    sizeof(), so it is never evaluated: a state change written into the
    condition silently disappears from that build. The condition may not
    contain ++/--, an assignment or compound assignment, or a mutating
    member call (exchange, fetch_*, compare_exchange_*, store, push,
    emplace, pop and their _back/_front forms, insert, erase, clear,
    reset, release, lock). Do the
    change first, keep its result in a local, and check the local.
    """
    for f in ctx.files:
        code = "\n".join(
            "" if line.lstrip().startswith("#") else line
            for line in f.code_lines)
        for m in CONTRACT_CALL_RE.finditer(code):
            args = macro_arguments(code, m.end() - 1)
            # STF_ASSERT_FINITE(what, ...) checks everything after `what`;
            # the others check their first argument.
            conditions = (args[1:] if m.group(1) == "STF_ASSERT_FINITE"
                          else args[:1])
            hit = next((h for h in (SIDE_EFFECT_RE.search(c)
                                    for c in conditions) if h), None)
            line_no = code.count("\n", 0, m.start()) + 1
            if hit and not allowed(f, line_no, "contract-side-effect"):
                yield Finding(
                    "contract-side-effect", f.rel, line_no,
                    f"'{hit.group(0).strip()}' inside a {m.group(1)} "
                    "condition is compiled out with the contract "
                    "(SIGTEST_CHECKED=OFF); do it before the contract "
                    "and check its result")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def load_files(root: Path) -> Context:
    ctx = Context(root=root)
    src = root / "src"
    for path in sorted(src.rglob("*.hpp")) + sorted(src.rglob("*.cpp")):
        text = path.read_text(errors="replace")
        code_lines, suppressed = lex(text)
        ctx.files.append(
            SourceFile(path=path,
                       rel=path.relative_to(root).as_posix(),
                       raw_lines=text.splitlines(),
                       code_lines=code_lines,
                       suppressed=suppressed))
    return ctx


def analyze(root: Path) -> list[Finding]:
    ctx = load_files(root)
    findings: list[Finding] = []
    for r in RULES:
        for f in r.check(ctx):
            f.severity = r.severity
            findings.append(f)
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings


def load_baseline(path: Path) -> set[str]:
    if not path.exists():
        return set()
    data = json.loads(path.read_text())
    return {e["key"] for e in data.get("entries", [])}


def write_baseline(path: Path, findings: list[Finding]) -> None:
    entries = [{
        "key": f.key(),
        "rule": f.rule,
        "file": f.file,
        "line": f.line,
    } for f in findings]
    path.write_text(
        json.dumps({"entries": entries}, indent=2, sort_keys=True) + "\n")


def findings_json(findings: list[Finding]) -> str:
    return json.dumps(
        {
            "findings": [{
                "rule": f.rule,
                "file": f.file,
                "line": f.line,
                "severity": f.severity,
                "baselined": f.baselined,
                "message": f.message,
            } for f in findings],
            "total": len(findings),
            "fatal": sum(1 for f in findings
                         if not f.baselined and f.severity == "error"),
        },
        indent=2) + "\n"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="stf_analyze",
        description="Static analyzer for the signature-test framework")
    parser.add_argument("root", nargs="?", default=".",
                        help="repository root (holds src/ and tests/)")
    parser.add_argument("--json", nargs="?", const="-", default=None,
                        metavar="PATH",
                        help="write findings JSON to PATH (default stdout)")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="baseline file "
                             "(default tools/stf_analyze_baseline.json)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite the baseline from current findings")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule registry and exit")
    args = parser.parse_args(argv[1:])

    if args.list_rules:
        for r in RULES:
            first_line = r.doc.splitlines()[0] if r.doc else ""
            print(f"{r.name:18} {r.severity:6} {first_line}")
        return 0

    root = Path(args.root).resolve()
    if not (root / "src").is_dir():
        print(f"stf_analyze: no src/ under {root}", file=sys.stderr)
        return 2

    baseline_path = (Path(args.baseline) if args.baseline else
                     root / "tools" / "stf_analyze_baseline.json")
    findings = analyze(root)

    if args.write_baseline:
        write_baseline(baseline_path, findings)
        print(f"stf_analyze: baseline written: {baseline_path} "
              f"({len(findings)} entries)")
        return 0

    baseline = load_baseline(baseline_path)
    for f in findings:
        f.baselined = f.key() in baseline

    if args.json is not None:
        payload = findings_json(findings)
        if args.json == "-":
            print(payload, end="")
        else:
            Path(args.json).write_text(payload)

    fatal = [f for f in findings if not f.baselined and f.severity == "error"]
    if args.json != "-":
        for f in findings:
            print(f.render())
        n_files = len(load_files(root).files)
        n_base = sum(1 for f in findings if f.baselined)
        if fatal:
            print(f"stf_analyze: {len(fatal)} violation(s) "
                  f"({n_base} baselined) in {n_files} files")
        else:
            print(f"stf_analyze: OK ({n_files} files, {len(RULES)} rules"
                  + (f", {n_base} baselined" if n_base else "") + ")")
    return 1 if fatal else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
