#!/usr/bin/env python3
"""Atomics-discipline linter for the prefetching simulator.

Clang's -Wthread-safety leg (see docs/static-analysis.md, "Concurrency
analysis") proves lock and role discipline, but it says nothing about
*memory ordering* — a defaulted seq_cst, a fence with no pairing story,
or an atomic member whose writer set nobody wrote down all pass the
capability analysis.  This linter enforces the repo's ordering rules:

  explicit-order    every atomic load / store / RMW names its
                    std::memory_order explicitly.  The defaulted argument
                    is seq_cst, which is both the slowest ordering and —
                    worse — a silent one: a reader cannot tell a
                    deliberate seq_cst from an ordering nobody thought
                    about.  Single-writer cells and the SPSC ring need
                    relaxed/acquire/release only.
  seq-cst           memory_order_seq_cst is banned unless waived with
                    `lint: allow(seq-cst): <why>`; the rationale must say
                    what the total order buys that acq/rel does not.
  fence             standalone std::atomic_thread_fence /
                    atomic_signal_fence need `lint: allow(fence): <why>`
                    naming the acquire/release pairing (the two seqlock
                    fences in obs/counters.hpp are the template).
  role-comment      every `std::atomic<...>` variable declaration — and
                    every field guarded by a thread-role capability
                    (`PFP_GUARDED_BY(<...>role<...>)`, e.g. the SPSC
                    cached indices and the sharded engine's staging
                    buffers) — carries `// writers: ...  readers: ...`
                    comments within the six lines above it, so the
                    single-writer contracts the thread-safety roles
                    assert are also written down where the data lives.
                    Mutex-guarded fields are exempt: their contract IS
                    the mutex.
  atomics-allowlist atomics may only appear in the files listed in
                    ATOMIC_FILES below.  Concurrency stays corralled in
                    the audited leaf primitives; a new atomic anywhere
                    else is an architecture decision, not a drive-by —
                    extend the list in the same PR that reviews the
                    design.

Two analysis modes:

  --mode regex (the default under `auto` when libclang is missing) runs
      the line-based scanner below on src/.  It is the mode exercised by
      the repo's own self-tests and the blocking CI leg; it blanks
      comments and string literals first, and tracks multi-line call
      argument lists, so the usual false-positive sources are handled.
  --mode ast parses compile_commands.json through clang.cindex and walks
      real atomic member calls, so renamed objects, macros and exotic
      formatting cannot hide an operation.  Needs libclang (python3-clang
      in CI's nightly strict leg — the dev container does not ship it,
      which is why regex is the blocking path).  --strict turns "AST
      unavailable" from a fallback into exit 2.

Waivers reuse the conventions-linter grammar: `lint: allow(<rule>)` on
the offending line (or the line above, for fences and declarations);
seq-cst and fence additionally REQUIRE the `: <rationale>` suffix — a
waiver without a proof obligation is itself a violation.

Exit status: 0 clean, 1 violations found, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys
import tempfile
from typing import Iterable, List, NamedTuple, Optional, Sequence

SOURCE_SUFFIXES = {".hpp", ".cpp"}

# The audited concurrency surface: the only files that may declare an
# std::atomic or perform an atomic operation.  Keep sorted.
ATOMIC_FILES = {
    "src/core/tree/prefetch_tree.cpp",   # uid counter for tree instances
    "src/engine/sharded_engine.cpp",     # stop flag + processed counters
    "src/engine/sharded_engine.hpp",
    "src/obs/counters.hpp",              # single-writer cells + seqlock
    "src/obs/trace_ring.hpp",            # single-writer event ring
    "src/obs/trace_ring.cpp",
    "src/util/audit.cpp",                # audit-handler slot
    "src/util/phase.hpp",                # phase accumulation cells
    "src/util/spsc_queue.hpp",           # head/tail indices
}

# Atomic member functions that take a memory_order argument (possibly
# defaulted).  notify_* take none and are therefore not listed.
ORDERED_OPS = (
    "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_and",
    "fetch_or", "fetch_xor", "compare_exchange_weak",
    "compare_exchange_strong", "wait", "test_and_set", "clear",
)

# `.clear(` and `.wait(` are common on non-atomic types (containers,
# condition variables); only treat them as atomic ops when the call
# names a memory_order or the receiver is a known atomic-ish expression.
AMBIGUOUS_OPS = {"clear", "wait", "store", "load", "exchange"}

ATOMIC_DECL_RE = re.compile(r"\bstd\s*::\s*atomic(?:_flag\b|\s*<)")
# A field guarded by a thread-role capability (not a mutex): the
# capability expression names a role, e.g. PFP_GUARDED_BY(producer_role)
# or PFP_GUARDED_BY(queue.consumer_role).  These are the cross-thread
# single-writer contracts (SPSC cached indices, staging buffers), so
# they carry the same writers:/readers: documentation duty as atomics.
ROLE_GUARDED_RE = re.compile(r"\bPFP_GUARDED_BY\s*\(\s*[\w.>\-]*role\w*\s*\)")
OP_CALL_RE = re.compile(
    r"[.\->]\s*(" + "|".join(ORDERED_OPS) + r")\s*\(")
FENCE_RE = re.compile(
    r"\b(?:std\s*::\s*)?atomic_(?:thread|signal)_fence\s*\(")
SEQ_CST_RE = re.compile(r"\bmemory_order(?:_seq_cst\b|\s*::\s*seq_cst\b)")
# Both spellings: memory_order_relaxed and memory_order::relaxed (and a
# plain `std::memory_order` variable being forwarded).
MEMORY_ORDER_RE = re.compile(r"\bmemory_order(?:_\w+|\s*::\s*\w+|\b)")
ROLE_COMMENT_WINDOW = 6  # lines above an atomic decl searched for roles

ALLOW_LINE_RE = re.compile(r"lint:\s*allow\(([a-z-]+)\)")
ALLOW_FILE_RE = re.compile(r"lint:\s*allow-file\(([a-z-]+)\)")
ALLOW_REASON_RE = re.compile(r"lint:\s*allow\(([a-z-]+)\):\s*(\S.*)")


class Violation(NamedTuple):
    path: str
    line: int  # 1-based; 0 for file-level findings
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --- shared comment/literal blanking (mirrors check_conventions.py) ------


def strip_code(line: str) -> str:
    """Drop string/char literals and // comments so regexes see code only."""
    out: List[str] = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    i += 1
                    break
                i += 1
            out.append(" ")
            continue
        out.append(c)
        i += 1
    return "".join(out)


def code_lines(text: str) -> List[str]:
    """Per-line code with comments and literals blanked."""
    lines: List[str] = []
    in_block = False
    for raw in text.splitlines():
        if in_block:
            end = raw.find("*/")
            if end == -1:
                lines.append("")
                continue
            raw = " " * (end + 2) + raw[end + 2:]
            in_block = False
        raw = strip_code(raw)
        while True:
            start = raw.find("/*")
            if start == -1:
                break
            end = raw.find("*/", start + 2)
            if end == -1:
                raw = raw[:start]
                in_block = True
                break
            raw = raw[:start] + " " * (end + 2 - start) + raw[end + 2:]
        lines.append(raw)
    return lines


def call_args(code: Sequence[str], line_idx: int, open_col: int) -> str:
    """The argument text of a call whose '(' sits at code[line_idx][open_col].

    Scans forward across lines until the parenthesis balances; gives up
    (returning what it has) after 20 lines, which no real call exceeds.
    """
    depth = 0
    out: List[str] = []
    for i in range(line_idx, min(line_idx + 20, len(code))):
        segment = code[i][open_col:] if i == line_idx else code[i]
        for ch in segment:
            if ch == "(":
                depth += 1
                if depth == 1:
                    continue
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    return "".join(out)
            if depth >= 1:
                out.append(ch)
    return "".join(out)


def is_atomic_ref(line: str, after_open: int) -> bool:
    """True when `std::atomic<...>` at this position is a `&`/`*` use.

    References and pointers (function parameters, return types) don't own
    the cell, so the role-comment rule belongs at the owning declaration,
    not here.  `after_open` is the index just past the `<` (or past
    `atomic_flag`).
    """
    if line[after_open - 1] != "<":
        i = after_open  # atomic_flag: no template args to skip
    else:
        depth = 1
        i = after_open
        while i < len(line) and depth > 0:
            if line[i] == "<":
                depth += 1
            elif line[i] == ">":
                depth -= 1
            i += 1
        if depth != 0:
            return False  # template args continue on the next line
    while i < len(line) and line[i] == " ":
        i += 1
    return i < len(line) and line[i] in "&*"


# --- regex mode ----------------------------------------------------------


def waiver_reason(raw_lines: Sequence[str], lineno: int, rule: str
                  ) -> Optional[str]:
    """The rationale of a `lint: allow(rule): why` on the line or above."""
    for idx in (lineno - 1, lineno - 2, lineno - 3):
        if 0 <= idx < len(raw_lines):
            for match in ALLOW_REASON_RE.finditer(raw_lines[idx]):
                if match.group(1) == rule:
                    return match.group(2).strip()
    return None


def has_bare_waiver(raw_lines: Sequence[str], lineno: int, rule: str) -> bool:
    for idx in (lineno - 1, lineno - 2, lineno - 3):
        if 0 <= idx < len(raw_lines):
            if rule in ALLOW_LINE_RE.findall(raw_lines[idx]):
                return True
    return False


def check_file(root: pathlib.Path, path: pathlib.Path) -> List[Violation]:
    rel = path.relative_to(root).as_posix()
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        return [Violation(rel, 0, "io", f"unreadable: {err}")]

    raw_lines = text.splitlines()
    code = code_lines(text)
    file_waivers = set(ALLOW_FILE_RE.findall(text))
    allowlisted = rel in ATOMIC_FILES

    violations: List[Violation] = []

    def report(lineno: int, rule: str, message: str) -> None:
        if rule in file_waivers:
            return
        # seq-cst and fence demand the `: <rationale>` suffix (checked by
        # the caller before reporting); a bare waiver is not a proof
        # obligation, so it does not silence them.
        if rule not in ("seq-cst", "fence") \
                and has_bare_waiver(raw_lines, lineno, rule):
            return
        violations.append(Violation(rel, lineno, rule, message))

    uses_atomics = False

    for i, line in enumerate(code, start=1):
        if not line.strip():
            continue

        decl_match = ATOMIC_DECL_RE.search(line)
        if decl_match and not is_atomic_ref(line, decl_match.end()):
            uses_atomics = True
            # Declaration (not a using/typedef/template parameter): demand
            # the writers/readers role comment in the window above.
            window = raw_lines[max(0, i - 1 - ROLE_COMMENT_WINDOW):i]
            blob = "\n".join(window)
            if "writers:" not in blob or "readers:" not in blob:
                report(i, "role-comment",
                       "std::atomic declaration without '// writers: ...' "
                       "and 'readers: ...' comments in the "
                       f"{ROLE_COMMENT_WINDOW} lines above; write the "
                       "thread contract down where the data lives")

        # Role-guarded fields (PFP_GUARDED_BY over a *role* capability):
        # same documentation duty as atomics — they are the data the
        # role contracts exist for.  Skip preprocessor lines so the
        # macro's own #define never trips the rule.
        if not line.lstrip().startswith("#") and ROLE_GUARDED_RE.search(line):
            window = raw_lines[max(0, i - 1 - ROLE_COMMENT_WINDOW):i]
            blob = "\n".join(window)
            if "writers:" not in blob or "readers:" not in blob:
                report(i, "role-comment",
                       "role-guarded field without '// writers: ...' and "
                       "'readers: ...' comments in the "
                       f"{ROLE_COMMENT_WINDOW} lines above; the guarded "
                       "declaration is where the cross-thread contract "
                       "belongs")

        if SEQ_CST_RE.search(line):
            uses_atomics = True
            if waiver_reason(raw_lines, i, "seq-cst") is None:
                report(i, "seq-cst",
                       "memory_order_seq_cst needs "
                       "'lint: allow(seq-cst): <why>' stating what the "
                       "total order buys over acq/rel")

        for match in FENCE_RE.finditer(line):
            uses_atomics = True
            if waiver_reason(raw_lines, i, "fence") is None:
                report(i, "fence",
                       "standalone fence needs 'lint: allow(fence): <why>' "
                       "naming its acquire/release pairing")

        for match in OP_CALL_RE.finditer(line):
            op = match.group(1)
            open_col = line.index("(", match.start())
            args = call_args(code, i - 1, open_col)
            has_order = bool(MEMORY_ORDER_RE.search(args))
            receiver = line[:match.start()]
            if op in AMBIGUOUS_OPS and not has_order:
                # Only atomic receivers count; skip containers/streams/CVs
                # unless the file's own atomics make the receiver likely.
                if not re.search(r"atomic|_\.\s*$|flag", receiver) \
                        and not allowlisted:
                    continue
                # In allowlisted files, a known-atomic receiver spelling
                # (trailing underscore members, atomic locals) is assumed;
                # non-member calls like `out.clear()` on streams still
                # need skipping.
                if not re.search(
                        r"(?:^|[^\w.])(?:\w*_|\w*atomic\w*|counter|cell|"
                        r"version|head|tail|next|stop|done|processed|"
                        r"g_\w+)\s*$",
                        receiver.rstrip()):
                    continue
            uses_atomics = True
            if not has_order:
                report(i, "explicit-order",
                       f".{op}() without an explicit std::memory_order "
                       "(the default is a silent seq_cst)")

    if uses_atomics and not allowlisted \
            and "atomics-allowlist" not in file_waivers:
        report(0, "atomics-allowlist",
               "file uses std::atomic but is not in "
               "check_atomics.ATOMIC_FILES; new concurrency primitives "
               "belong in the audited allowlist (same PR, reviewed)")

    return violations


def iter_sources(root: pathlib.Path) -> Iterable[pathlib.Path]:
    src = root / "src"
    if not src.is_dir():
        raise FileNotFoundError(f"no src/ directory under {root}")
    for path in sorted(src.rglob("*")):
        if path.suffix in SOURCE_SUFFIXES and path.is_file():
            yield path


def run_regex(root: pathlib.Path) -> int:
    try:
        paths = list(iter_sources(root))
    except FileNotFoundError as err:
        print(f"check_atomics: error: {err}", file=sys.stderr)
        return 2
    violations: List[Violation] = []
    for path in paths:
        violations.extend(check_file(root, path))
    for violation in violations:
        print(violation)
    if violations:
        print(f"check_atomics: {len(violations)} violation(s) in "
              f"{len(paths)} file(s) [regex mode]", file=sys.stderr)
        return 1
    print(f"check_atomics: OK ({len(paths)} files, regex mode)")
    return 0


# --- AST mode ------------------------------------------------------------


def load_cindex():
    """Import clang.cindex, returning the module or None."""
    try:
        import clang.cindex as cindex  # type: ignore[import-not-found]
        return cindex
    except ImportError:
        return None


def ast_check_tu(cindex, tu, root: pathlib.Path) -> List[Violation]:
    """Walk one translation unit for atomic calls missing explicit orders.

    Token-level check scoped to genuine std::atomic member calls: the
    cursor tells us the receiver type, and the call's token extent tells
    us whether any argument names a memory_order.  Defaulted arguments
    never appear in the extent, so "no memory_order token" == "defaulted
    seq_cst".
    """
    violations: List[Violation] = []
    kind = cindex.CursorKind
    src_root = (root / "src").resolve()

    def rel_of(cursor) -> Optional[str]:
        if cursor.location.file is None:
            return None
        p = pathlib.Path(cursor.location.file.name).resolve()
        try:
            return p.relative_to(root.resolve()).as_posix()
        except ValueError:
            return None
        finally:
            pass

    def in_src(cursor) -> bool:
        if cursor.location.file is None:
            return False
        try:
            pathlib.Path(cursor.location.file.name).resolve() \
                .relative_to(src_root)
            return True
        except ValueError:
            return False

    def visit(cursor) -> None:
        if cursor.kind == kind.CALL_EXPR and in_src(cursor) \
                and cursor.spelling in ORDERED_OPS:
            children = list(cursor.get_children())
            if children:
                recv_type = children[0].type.spelling
                if "atomic" in recv_type:
                    tokens = " ".join(
                        t.spelling for t in cursor.get_tokens())
                    if "memory_order" not in tokens:
                        rel = rel_of(cursor) or "<unknown>"
                        violations.append(Violation(
                            rel, cursor.location.line, "explicit-order",
                            f".{cursor.spelling}() on {recv_type} without "
                            "an explicit std::memory_order [ast]"))
        for child in cursor.get_children():
            visit(child)

    visit(tu.cursor)
    return violations


def run_ast(root: pathlib.Path, strict: bool) -> int:
    cindex = load_cindex()
    if cindex is None:
        msg = ("check_atomics: clang.cindex unavailable "
               "(install python3-clang for AST mode)")
        if strict:
            print(msg, file=sys.stderr)
            return 2
        print(f"{msg}; falling back to regex mode", file=sys.stderr)
        return run_regex(root)

    compdb_path = root / "build" / "compile_commands.json"
    if not compdb_path.is_file():
        msg = (f"check_atomics: {compdb_path} missing (configure with "
               "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON)")
        if strict:
            print(msg, file=sys.stderr)
            return 2
        print(f"{msg}; falling back to regex mode", file=sys.stderr)
        return run_regex(root)

    try:
        entries = json.loads(compdb_path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        print(f"check_atomics: bad compilation database: {err}",
              file=sys.stderr)
        return 2

    index = cindex.Index.create()
    violations: List[Violation] = []
    seen: set = set()
    parsed = 0
    for entry in entries:
        f = pathlib.Path(entry["file"])
        if not f.is_absolute():
            f = pathlib.Path(entry["directory"]) / f
        rel = None
        try:
            rel = f.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
        if rel is None or not rel.startswith("src/") or rel in seen:
            continue
        seen.add(rel)
        args = entry.get("arguments")
        if args is None:
            args = entry.get("command", "").split()
        # Drop the compiler argv[0] and the -o/-c bookkeeping libclang
        # re-derives itself.
        flags = [a for a in args[1:] if a not in ("-c", str(f))]
        if "-o" in flags:
            i = flags.index("-o")
            del flags[i:i + 2]
        try:
            tu = index.parse(str(f), args=flags)
        except cindex.TranslationUnitLoadError as err:
            print(f"check_atomics: parse failed for {rel}: {err}",
                  file=sys.stderr)
            return 2
        parsed += 1
        violations.extend(ast_check_tu(cindex, tu, root))

    # The AST pass covers operation sites; declarations, waiver grammar
    # and the allowlist are textual properties, so the regex rules still
    # run and the union is reported.
    for path in iter_sources(root):
        violations.extend(check_file(root, path))

    uniq = sorted(set(violations))
    for violation in uniq:
        print(violation)
    if uniq:
        print(f"check_atomics: {len(uniq)} violation(s) "
              f"[ast mode, {parsed} TUs]", file=sys.stderr)
        return 1
    print(f"check_atomics: OK (ast mode, {parsed} TUs)")
    return 0


# --- self-test -----------------------------------------------------------

SELF_TEST_CASES = [
    # (name, relpath, source, expected rule or None)
    ("defaulted-load",
     "src/util/spsc_queue.hpp",
     "// writers: w  readers: r\nstd::atomic<int> head_{0};\n"
     "int f() { return head_.load(); }\n",
     "explicit-order"),
    ("explicit-load-clean",
     "src/util/spsc_queue.hpp",
     "// writers: w  readers: r\nstd::atomic<int> head_{0};\n"
     "int f() { return head_.load(std::memory_order_acquire); }\n",
     None),
    ("multiline-order-clean",
     "src/util/spsc_queue.hpp",
     "// writers: w  readers: r\nstd::atomic<int> head_{0};\n"
     "void f() { head_.store(1,\n    std::memory_order_release); }\n",
     None),
    ("seq-cst-unwaived",
     "src/util/spsc_queue.hpp",
     "// writers: w  readers: r\nstd::atomic<int> head_{0};\n"
     "int f() { return head_.load(std::memory_order_seq_cst); }\n",
     "seq-cst"),
    ("seq-cst-waived-with-reason",
     "src/util/spsc_queue.hpp",
     "// writers: w  readers: r\nstd::atomic<int> head_{0};\n"
     "// lint: allow(seq-cst): total order anchors the ABA test oracle\n"
     "int f() { return head_.load(std::memory_order_seq_cst); }\n",
     None),
    ("fence-unwaived",
     "src/obs/counters.hpp",
     "#include <atomic>\nvoid f() {\n"
     "  std::atomic_thread_fence(std::memory_order_release);\n}\n",
     "fence"),
    ("fence-waived",
     "src/obs/counters.hpp",
     "#include <atomic>\nvoid f() {\n"
     "  // lint: allow(fence): seqlock begin — pairs with reader acquire\n"
     "  std::atomic_thread_fence(std::memory_order_release);\n}\n",
     None),
    ("missing-role-comment",
     "src/util/phase.hpp",
     "std::atomic<unsigned> count_{0};\n",
     "role-comment"),
    ("role-comment-in-window",
     "src/util/phase.hpp",
     "// writers: the engine thread\n// readers: any scraper\n"
     "std::atomic<unsigned> count_{0};\n",
     None),
    ("allowlist-violation",
     "src/core/policy/rogue.cpp",
     "// writers: w  readers: r\nstd::atomic<int> sneaky_{0};\n",
     "atomics-allowlist"),
    # Bulk-queue patterns: a run-publishing store with a defaulted order
    # is exactly the bug the bulk ops must never regress into.
    ("bulk-publish-defaulted-store",
     "src/util/spsc_queue.hpp",
     "// writers: w  readers: r\nstd::atomic<std::uint64_t> tail_{0};\n"
     "void f(std::size_t n) { auto t = tail_.load(\n"
     "    std::memory_order_relaxed); tail_.store(t + n); }\n",
     "explicit-order"),
    ("bulk-publish-explicit-store-clean",
     "src/util/spsc_queue.hpp",
     "// writers: w  readers: r\nstd::atomic<std::uint64_t> tail_{0};\n"
     "void f(std::size_t n) { auto t = tail_.load(\n"
     "    std::memory_order_relaxed);\n"
     "  tail_.store(t + n, std::memory_order_release); }\n",
     None),
    # Role-guarded fields (staging buffers, cached indices) need the
    # writers:/readers: contract like atomics do.
    ("role-guarded-missing-comment",
     "src/engine/sharded_engine.hpp",
     "std::vector<int> staged PFP_GUARDED_BY(queue.producer_role);\n",
     "role-comment"),
    ("role-guarded-with-comment",
     "src/engine/sharded_engine.hpp",
     "// writers: producer thread  readers: producer thread\n"
     "std::vector<int> staged PFP_GUARDED_BY(queue.producer_role);\n",
     None),
    ("mutex-guarded-exempt",
     "src/util/thread_pool.hpp",
     "std::queue<int> queue_ PFP_GUARDED_BY(mutex_);\n",
     None),
    ("guarded-macro-define-exempt",
     "src/util/thread_annotations.hpp",
     "#define PFP_GUARDED_BY(x) __attribute__((guarded_by(x)))\n"
     "// mentions producer_role in prose only\n",
     None),
    ("comment-mention-clean",
     "src/core/policy/clean.cpp",
     "// std::atomic would be wrong here; see docs\nint x = 0;\n",
     None),
]


def run_self_test() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        for name, rel, source, expected in SELF_TEST_CASES:
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
            rules = {v.rule for v in check_file(root, path)}
            path.unlink()
            if expected is None:
                ok = not rules
                detail = f"expected clean, got {sorted(rules)}"
            else:
                ok = expected in rules
                detail = f"expected [{expected}], got {sorted(rules)}"
            status = "ok" if ok else "FAIL"
            print(f"self-test {name}: {status}" + ("" if ok else
                                                   f" ({detail})"))
            failures += 0 if ok else 1
    if failures:
        print(f"check_atomics: self-test FAILED ({failures} case(s))",
              file=sys.stderr)
        return 1
    print("check_atomics: self-test OK "
          f"({len(SELF_TEST_CASES)} cases)")
    return 0


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="atomics-discipline linter "
                    "(see docs/static-analysis.md)")
    parser.add_argument(
        "--root", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parents[2],
        help="repository root (default: two levels above this script)")
    parser.add_argument(
        "--mode", choices=("auto", "regex", "ast"), default="auto",
        help="auto prefers ast when libclang + compile_commands.json "
             "exist, else regex")
    parser.add_argument(
        "--strict", action="store_true",
        help="in ast/auto mode, fail instead of falling back to regex")
    parser.add_argument(
        "--self-test", action="store_true",
        help="run the seeded-violation self-checks and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return run_self_test()

    root = args.root.resolve()
    if args.mode == "regex":
        return run_regex(root)
    if args.mode == "ast":
        return run_ast(root, strict=args.strict)
    # auto
    if load_cindex() is not None \
            and (root / "build" / "compile_commands.json").is_file():
        return run_ast(root, strict=args.strict)
    if args.strict:
        print("check_atomics: --strict requires AST mode "
              "(libclang + compile_commands.json)", file=sys.stderr)
        return 2
    return run_regex(root)


if __name__ == "__main__":
    sys.exit(main())
