#!/usr/bin/env python3
"""Repo-specific conventions linter for the prefetching simulator.

clang-tidy covers general C++ hygiene; this script enforces the handful of
project rules that generic tooling cannot know about (see
docs/static-analysis.md for the rationale behind each):

  hot-container     std::map / std::unordered_map / std::set /
                    std::unordered_set are banned in the hot-path dirs
                    (src/core/, src/cache/, src/obs/).  The hot-path overhaul
                    replaced them with util::FlatMap; a
                    node-based container sneaking back in silently undoes
                    that PR.  src/obs/ counts as hot because the engine
                    publishes into it once per access.
  hot-alloc         per-access heap allocation (naked new, make_unique,
                    make_shared) is banned in the hot-path dirs.  Setup-time
                    construction sites carry an explicit waiver.
  naked-new         naked new outside the hot dirs must also be waived
                    (no site in src/ needs a waiver today).
  no-std-rand       std::rand / srand are banned everywhere in src/; all
                    randomness flows through util::SplitMix64 / Xoshiro256 so
                    runs stay reproducible from a seed.
  no-float-costben  the cost-benefit arithmetic (paper Eq. 1-14, in
                    src/core/costben/) must stay double; float intermediates
                    change eviction decisions between builds.
  node-heap-member  heap-owning containers (std::vector, util::SmallVector,
                    std::string, deque/list/map/...) are banned as members
                    of node records (structs/classes whose name ends in
                    "Node") in src/core/tree/.  The SoA overhaul moved
                    child storage into the pool's shared arena so node
                    records stay fixed-size POD planes; a per-node
                    container member reintroduces pointer-chasing into the
                    walks the arena layout exists to avoid.
  raw-thread        std::thread / std::jthread / pthread_create are banned
                    in src/ outside src/util/.  Thread lifetime belongs to
                    util::ThreadPool (whose queue discipline is annotated
                    for -Wthread-safety, see util/thread_annotations.hpp);
                    a raw spawn elsewhere escapes both the pool's join
                    guarantees and the static analysis.  std::this_thread
                    (yield/sleep) is fine and does not match.
  raw-socket        raw socket/poll syscalls (socket, bind, listen, accept,
                    connect, recv/send and friends, poll/epoll, shutdown)
                    are banned in src/ outside src/server/ and src/util/.
                    Every byte that crosses the network goes through the
                    one reviewed surface in util/net.hpp; a stray syscall
                    elsewhere escapes its EINTR/non-blocking discipline and
                    the server's event-loop ownership model.
  include-guard     every header under src/ uses #pragma once (repo
                    convention; mixing guard styles breaks the amalgamated
                    include checks).
  layering          src/engine/ may not include sim/ headers, and src/obs/
                    may include util/ (and obs/ itself) only.  The engine
                    extraction put the per-access state machine below the
                    trace-replay drivers (util -> {trace, cache} -> core ->
                    engine -> sim, with obs between util and engine); an
                    upward include would recreate the cycles those refactors
                    removed.  src/server/ sits on top of engine: it may
                    include engine/, obs/ and util/ only (never core/,
                    cache/, trace/ or sim/ — the wire protocol speaks raw
                    u64 block ids precisely so it needs none of them), and
                    NOTHING outside src/server/ may include server/ headers
                    (it is the top of the stack; an upward include would
                    drag socket code into the simulation layers).

Waivers: append `lint: allow(<rule>)` in a comment on the offending line, or
put `lint: allow-file(<rule>)` in a comment anywhere in the file to waive a
rule for the whole file.  Waivers are deliberate, greppable decisions.

Exit status: 0 clean, 1 violations found, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from typing import Iterable, List, NamedTuple

HOT_DIRS = ("src/core", "src/cache", "src/obs")
COSTBEN_DIR = "src/core/costben"
TREE_DIR = "src/core/tree"
MARKOV_DIR = "src/core/markov"
ASSOC_DIR = "src/core/assoc"
ENGINE_DIR = "src/engine"
OBS_DIR = "src/obs"
UTIL_DIR = "src/util"
SERVER_DIR = "src/server"
SOURCE_SUFFIXES = {".hpp", ".cpp"}

# Layer boundaries: directory -> include prefixes it may not reach.  The
# obs entry lists every project layer except util/ and obs/ itself, which
# is the allowlist "obs may include util only" phrased as a ban.  The
# costben entry keeps the controller predictor-agnostic: the cost model
# (Eq. 1-14) consumes generic candidates (costben/candidate.hpp) and may
# never know any predictor family's types — the predictor-zoo refactor
# depends on that direction staying one-way.  The predictor modules
# (tree/, markov/, assoc/) are below policy/ and must not reach up into
# the policies that drive them, nor sideways into each other.
LAYERING = {
    ENGINE_DIR: ("sim/",),
    OBS_DIR: ("trace/", "cache/", "core/", "engine/", "sim/"),
    COSTBEN_DIR: ("core/tree/", "core/markov/", "core/assoc/",
                  "core/policy/", "cache/", "trace/", "engine/", "sim/",
                  "obs/"),
    TREE_DIR: ("core/policy/", "core/markov/", "core/assoc/", "engine/",
               "sim/", "obs/"),
    MARKOV_DIR: ("core/policy/", "core/tree/", "core/assoc/", "engine/",
                 "sim/", "obs/"),
    ASSOC_DIR: ("core/policy/", "core/tree/", "core/markov/", "engine/",
                "sim/", "obs/"),
    SERVER_DIR: ("trace/", "cache/", "core/", "sim/"),
}

# The inverse rule for the top of the stack: server/ headers may be
# included from src/server/ only.
SERVER_INCLUDE_PREFIX = "server/"

ALLOW_LINE_RE = re.compile(r"lint:\s*allow\(([a-z-]+)\)")
ALLOW_FILE_RE = re.compile(r"lint:\s*allow-file\(([a-z-]+)\)")

HOT_CONTAINER_RE = re.compile(
    r"std\s*::\s*(?:unordered_map|unordered_set|map|multimap|set|multiset)\s*<"
)
ALLOC_RE = re.compile(r"(?:\bnew\b(?!\s*\()|\bnew\s*\[|std\s*::\s*make_(?:unique|shared)\s*<)")
NAKED_NEW_RE = re.compile(r"\bnew\b")
STD_RAND_RE = re.compile(r"(?:std\s*::\s*rand\b|\bsrand\s*\(|\brand\s*\(\s*\))")
FLOAT_RE = re.compile(r"\bfloat\b")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*[<"]([^">]+)[">]')
# A node-record definition: struct/class whose name ends in "Node" with a
# body (forward declarations don't own members).  Matches HotNode/ColdNode
# but not NodePool or NodeView.
NODE_STRUCT_RE = re.compile(r"\b(?:struct|class)\s+(\w*Node)\b(?!\s*;)")
NODE_HEAP_MEMBER_RE = re.compile(
    r"\b(?:util\s*::\s*SmallVector\s*<"
    r"|std\s*::\s*(?:vector|deque|list|forward_list|map|multimap|set|"
    r"multiset|unordered_map|unordered_set|basic_string)\s*<"
    r"|std\s*::\s*string\b)"
)
# std::this_thread::yield()/sleep_for() never match: "this_thread" is a
# different token than "thread" after the ::.
RAW_THREAD_RE = re.compile(r"\bstd\s*::\s*j?thread\b|\bpthread_create\b")
# Bare socket-API calls.  The lookbehind skips member/qualified calls
# (ring.send(...), util::net::connect_tcp(...) is a different token) so
# only the global-namespace syscall form matches.
RAW_SOCKET_RE = re.compile(
    r"(?<![\w.>:])(?:socket|bind|listen|accept4?|connect|"
    r"recv(?:from|msg)?|send(?:to|msg)?|setsockopt|getsockopt|"
    r"epoll_(?:create1?|ctl|wait)|poll|ppoll|select|shutdown)\s*\("
)


class Violation(NamedTuple):
    path: str
    line: int  # 1-based; 0 for file-level findings
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code(line: str) -> str:
    """Drop string/char literals and // comments so regexes see only code.

    Block comments are handled by the caller (they can span lines); this
    function is line-local.  Escapes inside literals are honoured.
    """
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
            out.append(" ")  # keep column drift small
            continue
        out.append(c)
        i += 1
    return "".join(out)


def code_lines(text: str) -> List[str]:
    """Return per-line code with comments and literals blanked."""
    lines: List[str] = []
    in_block = False
    for raw in text.splitlines():
        if in_block:
            end = raw.find("*/")
            if end == -1:
                lines.append("")
                continue
            raw = " " * (end + 2) + raw[end + 2 :]
            in_block = False
        # Strip complete /* ... */ runs, then check for an unterminated one.
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
            raw = raw[:start] + " " * (end + 2 - start) + raw[end + 2 :]
        lines.append(raw)
    return lines


def in_dir(rel: str, prefix: str) -> bool:
    return rel == prefix or rel.startswith(prefix + "/")


def check_file(root: pathlib.Path, path: pathlib.Path) -> List[Violation]:
    rel = path.relative_to(root).as_posix()
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        return [Violation(rel, 0, "io", f"unreadable: {err}")]

    raw_lines = text.splitlines()
    code = code_lines(text)
    file_waivers = set(ALLOW_FILE_RE.findall(text))
    hot = any(in_dir(rel, d) for d in HOT_DIRS)
    costben = in_dir(rel, COSTBEN_DIR)
    tree = in_dir(rel, TREE_DIR)

    violations: List[Violation] = []

    def report(lineno: int, rule: str, message: str) -> None:
        if rule in file_waivers:
            return
        if lineno >= 1 and lineno <= len(raw_lines):
            if rule in ALLOW_LINE_RE.findall(raw_lines[lineno - 1]):
                return
        violations.append(Violation(rel, lineno, rule, message))

    if path.suffix == ".hpp" and "#pragma once" not in text:
        report(0, "include-guard",
               "header lacks '#pragma once' (repo guard convention)")

    # Layering runs on raw lines: code_lines() blanks string literals, and
    # the include path is one.
    for layer_dir, banned_prefixes in LAYERING.items():
        if not in_dir(rel, layer_dir):
            continue
        for i, raw in enumerate(raw_lines, start=1):
            match = INCLUDE_RE.match(raw)
            if match and match.group(1).startswith(banned_prefixes):
                report(i, "layering",
                       f"'{match.group(1)}' reaches across the layer stack "
                       f"({layer_dir}/ may not include it; see "
                       "docs/architecture.md)")
    if not in_dir(rel, SERVER_DIR):
        for i, raw in enumerate(raw_lines, start=1):
            match = INCLUDE_RE.match(raw)
            if match and match.group(1).startswith(SERVER_INCLUDE_PREFIX):
                report(i, "layering",
                       f"'{match.group(1)}' is the top of the stack; only "
                       "src/server/ may include server/ headers (see "
                       "docs/architecture.md)")

    # node-heap-member tracks struct bodies across lines: once a *Node
    # definition opens, flag heap-container members until its braces
    # balance again.  in_node is the running brace balance of the current
    # node record's body, or None when outside one.
    in_node: int | None = None
    for i, line in enumerate(code, start=1):
        if tree:
            if in_node is None and NODE_STRUCT_RE.search(line):
                in_node = 0
            if in_node is not None:
                body_open = in_node > 0 or "{" in line
                if body_open and NODE_HEAP_MEMBER_RE.search(line):
                    report(i, "node-heap-member",
                           "heap-owning container inside a node record; "
                           "store indices into a pool-owned arena instead "
                           "(or waive with 'lint: allow(node-heap-member)')")
                in_node += line.count("{") - line.count("}")
                if in_node == 0 and "}" in line:
                    in_node = None
        if not line.strip():
            continue
        if STD_RAND_RE.search(line):
            report(i, "no-std-rand",
                   "std::rand/srand breaks seeded reproducibility; "
                   "use util::SplitMix64 or util::Xoshiro256")
        if not in_dir(rel, UTIL_DIR) and RAW_THREAD_RE.search(line):
            report(i, "raw-thread",
                   "raw thread spawn outside src/util/; route work "
                   "through util::ThreadPool so lifetimes stay joined "
                   "and the thread-safety annotations apply")
        if (not in_dir(rel, UTIL_DIR) and not in_dir(rel, SERVER_DIR)
                and RAW_SOCKET_RE.search(line)):
            report(i, "raw-socket",
                   "raw socket/poll syscall outside src/server/ and "
                   "src/util/; go through util/net.hpp so every network "
                   "byte crosses the one reviewed surface")
        if hot and HOT_CONTAINER_RE.search(line):
            report(i, "hot-container",
                   "node-based std container in a hot-path dir; "
                   "use util::FlatMap")
        if hot and ALLOC_RE.search(line):
            report(i, "hot-alloc",
                   "heap allocation in a hot-path dir; hoist to setup "
                   "or waive with 'lint: allow(hot-alloc)'")
        elif not hot and NAKED_NEW_RE.search(line):
            report(i, "naked-new",
                   "naked new; prefer containers or std::make_unique, "
                   "or waive with 'lint: allow(naked-new)'")
        if costben and FLOAT_RE.search(line):
            report(i, "no-float-costben",
                   "cost-model arithmetic (paper Eq. 1-14) must stay "
                   "double; float drifts eviction decisions")
    return violations


def iter_sources(root: pathlib.Path) -> Iterable[pathlib.Path]:
    src = root / "src"
    if not src.is_dir():
        raise FileNotFoundError(f"no src/ directory under {root}")
    for path in sorted(src.rglob("*")):
        if path.suffix in SOURCE_SUFFIXES and path.is_file():
            yield path


def run(root: pathlib.Path) -> int:
    try:
        paths = list(iter_sources(root))
    except FileNotFoundError as err:
        print(f"check_conventions: error: {err}", file=sys.stderr)
        return 2
    violations: List[Violation] = []
    for path in paths:
        violations.extend(check_file(root, path))
    for violation in violations:
        print(violation)
    if violations:
        print(f"check_conventions: {len(violations)} violation(s) in "
              f"{len(paths)} file(s)", file=sys.stderr)
        return 1
    print(f"check_conventions: OK ({len(paths)} files)")
    return 0


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="project conventions linter (see docs/static-analysis.md)")
    parser.add_argument(
        "--root", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parents[2],
        help="repository root (default: two levels above this script)")
    args = parser.parse_args(argv)
    return run(args.root.resolve())


if __name__ == "__main__":
    sys.exit(main())
