#!/usr/bin/env python3
"""Repo lint: mechanical correctness rules the compiler does not enforce.

Run directly (`python3 tools/lint.py`) or via the `lint` ctest entry.
Exits non-zero after printing every violation as `path:line: [rule] message`.

Rules (see DESIGN.md "Correctness tooling"):
  pragma-once      every header starts include protection with #pragma once
  no-rand          no C rand()/srand()/std::rand — use mts::Rng (deterministic,
                   seedable; experiment reproducibility depends on it)
  no-naked-new     no `new`/`delete` expressions — containers and
                   std::unique_ptr own everything in this codebase
  no-float         no `float` in library code — all weight/cost/geometry math
                   is double; float silently loses the paper's tie margins
  require-throws   `throw PreconditionViolation` appears only inside
                   mts::require (core/error.hpp); API boundaries call require()
                   so every violation carries file:line context
  no-using-ns      no `using namespace` at header scope
  no-const-cast-top
                   no `const_cast` on a container's `.top()`/`.front()` —
                   mutating through a const accessor reference is UB-adjacent
                   and breaks heap/queue invariants silently; use a container
                   that supports a real move-out (e.g. a vector heap with
                   std::pop_heap, as graph/yen.cpp does)
  no-raw-clock     no direct std::chrono clock reads outside core/timer.hpp
                   and src/obs/ — all reported durations must flow through
                   mts::Stopwatch/reported_seconds so MTS_TIMING=0 stays
                   authoritative (deterministic output depends on it)
  no-bare-catch    every `catch (...)` in library code must rethrow
                   (`throw;`), capture std::current_exception() for a later
                   rethrow, or record the failure through
                   mts::current_exception_taxonomy() — silently swallowing
                   an unknown exception hides injected faults and real bugs
                   alike (src/core/error.cpp, the taxonomy implementation,
                   is the one legitimate bare sink)
  no-search-alloc  the point-to-point search engine (dijkstra + search_space
                   itself) must not size a container to num_nodes per call —
                   per-search storage lives in the epoch-stamped SearchSpace
                   precisely so the Yen/oracle hot loops stop allocating
                   (DESIGN.md §9).  A listed engine file that no longer
                   exists is itself a violation, so the rule cannot
                   silently switch off
  no-raw-getenv    no direct std::getenv in library code — every MTS_* knob
                   flows through mts::env_raw / env_int / env_string
                   (core/env.hpp), the single audited entry point for
                   environment-dependent behaviour
  no-raw-number-parse
                   no strto*, std::sto*, ato* or from_chars in library code
                   outside core/parse.hpp — every number read from outside
                   (env, flags, wire, specs, journal, OSM) goes through its
                   three strict readers, so one grammar decides what "7",
                   " 7", "+7", "inf" and "1e3" mean everywhere
  no-mutable-global
                   no mutable namespace-scope state in library code outside
                   the registered enabled-flag singletons (obs/fault/timer
                   overrides) — hidden globals are where cross-thread and
                   cross-run nondeterminism breeds.  thread_local state and
                   const/constexpr values are exempt; everything else
                   belongs behind a function-local static accessor
                   (core/thread_pool.cpp's global_pool() is the pattern)
  no-unordered-output
                   no range-for iteration over a std::unordered_map/set in
                   library code — byte-deterministic stdout/CSV/JSON
                   depends on ordered emission, and hash-order iteration is
                   the classic leak.  Follows `using X = std::unordered_...`
                   aliases and names declared in src/ headers (e.g.
                   osm::TagMap members).  Provably order-insensitive folds
                   (e.g. merging into a std::map) carry a suppression
  no-shared-temp-dir
                   no temp_directory_path() in tests/ outside
                   tests/test_util.hpp — ctest -j runs every gtest case as
                   its own process at once, so a fixed scratch path is
                   shared and one case's cleanup deletes another's files;
                   use mts::test::unique_temp_dir()
  unset-option     every field of a `struct ...Options` in src/ is assigned
                   (`.field =`, `->field =`, or a designated initializer)
                   somewhere in src/, bench/, examples/, perfbench/ or
                   tests/ — a field nothing sets is a configuration no
                   workload runs; make it a named constant next to its
                   one reader instead
  ci-workflow      .github/workflows/ci.yml parses as YAML and carries a
                   job matrix covering every ci.sh leg (dev, asan, tsan,
                   coverage) plus the tidy gate, so the hosted gate can
                   never silently drop a preset

Suppressions: a line (or the line directly above it) containing
`mts-lint: allow(<rule>)` exempts that line from <rule>.  Every suppression
must state its justification in the same comment; DESIGN.md §11 documents
the policy.

Incremental mode: `--files a.cpp b.hpp` restricts every file-scoped rule to
the given paths (pre-commit hooks and editor integrations stay fast as the
repo grows); the ci-workflow rule then runs only when the workflow file is
among them.  Violations are reported in stable (path, line, rule) order in
both modes.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# Directories scanned per rule.  Library rules are strict; tests/bench may
# legitimately differ (e.g. gtest internals), so each rule names its scope.
LIB_DIRS = ["src"]
ALL_DIRS = ["src", "tests", "bench", "examples"]

CXX_SUFFIXES = {".cpp", ".hpp"}


def strip_code(text: str) -> str:
    """Removes comments, string literals, and char literals, preserving line
    structure so reported line numbers stay exact.  Handles // and block
    comments, escapes, and R"delim(...)delim" raw strings."""
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif ch == "R" and nxt == '"':
            open_paren = text.find("(", i + 2)
            if open_paren == -1:
                i += 1
                continue
            delim = text[i + 2 : open_paren]
            closer = ")" + delim + '"'
            end = text.find(closer, open_paren + 1)
            end = n if end == -1 else end + len(closer)
            out.extend(c if c == "\n" else "" for c in text[i:end])
            i = end
        elif ch in "\"'":
            quote = ch
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":  # unterminated; bail at line end
                    break
                i += 1
            i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


# Registered mutable-global singletons: the lazily-initialized enabled
# flags of the observability/fault/timing layers.  Everything else at
# namespace scope must be const, thread_local, or refactored behind a
# function-local static accessor.
MUTABLE_GLOBAL_ALLOW = {
    ("src/obs/metrics.hpp", "g_metrics_override"),
    ("src/obs/metrics.hpp", "g_trace_override"),
    ("src/core/fault.hpp", "g_faults_override"),
    ("src/core/timer.hpp", "g_timing_override"),
}

SUPPRESS_RE = re.compile(r"mts-lint:\s*allow\(([a-z0-9-]+)\)")


class Linter:
    def __init__(self, root: Path, only_files: list[Path] | None = None) -> None:
        self.root = root
        self.violations: list[tuple[Path, int, str, str]] = []
        self.only_files: set[Path] | None = None
        if only_files is not None:
            self.only_files = set()
            for p in only_files:
                resolved = p if p.is_absolute() else (root / p)
                self.only_files.add(resolved.resolve())
        self._suppression_cache: dict[Path, dict[int, set[str]]] = {}

    def suppressions(self, path: Path) -> dict[int, set[str]]:
        """Line -> rules allowed there, from `mts-lint: allow(rule)` comments
        (a comment suppresses its own line and the line below it)."""
        cached = self._suppression_cache.get(path)
        if cached is not None:
            return cached
        allowed: dict[int, set[str]] = {}
        if not path.is_file():
            self._suppression_cache[path] = allowed
            return allowed
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            for match in SUPPRESS_RE.finditer(line):
                rule = match.group(1)
                allowed.setdefault(lineno, set()).add(rule)
                allowed.setdefault(lineno + 1, set()).add(rule)
        self._suppression_cache[path] = allowed
        return allowed

    def report(self, path: Path, line: int, rule: str, message: str) -> None:
        if rule in self.suppressions(path).get(line, set()):
            return
        self.violations.append((path, line, rule, message))

    def files(self, dirs: list[str], suffixes: set[str]) -> list[Path]:
        found: list[Path] = []
        for d in dirs:
            base = self.root / d
            if base.is_dir():
                found.extend(p for p in sorted(base.rglob("*")) if p.suffix in suffixes)
        if self.only_files is not None:
            found = [p for p in found if p.resolve() in self.only_files]
        return found

    def match_lines(self, stripped: str, pattern: re.Pattern[str]):
        for lineno, line in enumerate(stripped.splitlines(), start=1):
            if pattern.search(line):
                yield lineno, line.strip()

    # --- rules ----------------------------------------------------------

    def check_pragma_once(self) -> None:
        for path in self.files(ALL_DIRS, {".hpp"}):
            if "#pragma once" not in path.read_text():
                self.report(path, 1, "pragma-once", "header is missing #pragma once")

    def check_no_rand(self) -> None:
        pattern = re.compile(r"\b(?:std\s*::\s*)?s?rand\s*\(")
        for path in self.files(ALL_DIRS, CXX_SUFFIXES):
            for lineno, line in self.match_lines(strip_code(path.read_text()), pattern):
                self.report(path, lineno, "no-rand",
                            f"C rand() is banned; use mts::Rng: {line}")

    def check_no_naked_new(self) -> None:
        # `= delete`d functions and member names like `new_x` are not
        # new/delete expressions; everything else is.
        new_pattern = re.compile(r"\bnew\b(?!\w)")
        delete_pattern = re.compile(r"\bdelete\b(?!\w)")
        for path in self.files(LIB_DIRS, CXX_SUFFIXES):
            stripped = strip_code(path.read_text())
            stripped = re.sub(r"=\s*delete\b", "", stripped)
            # Preprocessor lines (#include <new>) are not expressions.
            stripped = re.sub(r"(?m)^\s*#.*$", "", stripped)
            for lineno, line in self.match_lines(stripped, new_pattern):
                self.report(path, lineno, "no-naked-new",
                            f"naked new; use containers/std::make_unique: {line}")
            for lineno, line in self.match_lines(stripped, delete_pattern):
                self.report(path, lineno, "no-naked-new",
                            f"naked delete; let owners manage lifetime: {line}")

    def check_no_float(self) -> None:
        pattern = re.compile(r"\bfloat\b")
        for path in self.files(LIB_DIRS, CXX_SUFFIXES):
            for lineno, line in self.match_lines(strip_code(path.read_text()), pattern):
                self.report(path, lineno, "no-float",
                            f"float in weight/geometry math; use double: {line}")

    def check_require_throws(self) -> None:
        pattern = re.compile(r"\bthrow\s+PreconditionViolation\b")
        allowed = self.root / "src" / "core" / "error.hpp"
        for path in self.files(LIB_DIRS, CXX_SUFFIXES):
            if path == allowed:
                continue
            for lineno, line in self.match_lines(strip_code(path.read_text()), pattern):
                self.report(path, lineno, "require-throws",
                            f"throw PreconditionViolation directly; call mts::require: {line}")

    def check_no_const_cast_top(self) -> None:
        # One-line matches only (like every rule here); a const_cast wrapping
        # a .top()/.front() call split across lines would slip through, but
        # clang-format keeps these on one line in practice.
        pattern = re.compile(
            r"const_cast\s*<[^<>;{}]*>\s*\([^();{}]*\.\s*(?:top|front)\s*\(\s*\)\s*\)")
        for path in self.files(LIB_DIRS, CXX_SUFFIXES):
            for lineno, line in self.match_lines(strip_code(path.read_text()), pattern):
                self.report(path, lineno, "no-const-cast-top",
                            f"const_cast on .top()/.front(); pop via std::pop_heap "
                            f"on a vector instead: {line}")

    def check_no_bare_catch(self) -> None:
        # A bare catch that neither rethrows nor records the failure turns
        # injected faults (and genuine bugs) into silent wrong answers.  The
        # handler must contain `throw;`, std::current_exception() (deferred
        # rethrow, as the thread pool does), or current_exception_taxonomy()
        # (the error-taxonomy recorder).  core/error.cpp implements the
        # taxonomy's own dispatch ladder, so it is whitelisted.
        allowed = self.root / "src" / "core" / "error.cpp"
        pattern = re.compile(r"\bcatch\s*\(\s*\.\.\.\s*\)")
        ok_body = re.compile(r"\bthrow\s*;|\bcurrent_exception")
        for path in self.files(LIB_DIRS, CXX_SUFFIXES):
            if path == allowed:
                continue
            stripped = strip_code(path.read_text())
            for match in pattern.finditer(stripped):
                lineno = stripped.count("\n", 0, match.start()) + 1
                open_brace = stripped.find("{", match.end())
                body = ""
                if open_brace != -1:
                    depth = 0
                    for j in range(open_brace, len(stripped)):
                        if stripped[j] == "{":
                            depth += 1
                        elif stripped[j] == "}":
                            depth -= 1
                            if depth == 0:
                                body = stripped[open_brace + 1:j]
                                break
                if not ok_body.search(body):
                    self.report(path, lineno, "no-bare-catch",
                                "catch (...) must rethrow or record the error "
                                "(throw; / std::current_exception() / "
                                "mts::current_exception_taxonomy())")

    def check_no_raw_clock(self) -> None:
        # Every duration the repo reports must pass through core/timer.hpp
        # (Stopwatch / reported_seconds) so MTS_TIMING=0 can zero it; the
        # obs layer wraps the clock once for trace timestamps.  Anything
        # else reading a chrono clock bypasses that gate.
        pattern = re.compile(
            r"\b(?:steady_clock|high_resolution_clock|system_clock)\s*::\s*now\b")
        timer = self.root / "src" / "core" / "timer.hpp"
        obs_dir = self.root / "src" / "obs"
        for path in self.files(LIB_DIRS, CXX_SUFFIXES):
            if path == timer or obs_dir in path.parents:
                continue
            for lineno, line in self.match_lines(strip_code(path.read_text()), pattern):
                self.report(path, lineno, "no-raw-clock",
                            f"raw chrono clock read; use mts::Stopwatch / "
                            f"reported_seconds (core/timer.hpp): {line}")

    def check_no_using_namespace(self) -> None:
        pattern = re.compile(r"\busing\s+namespace\b")
        for path in self.files(ALL_DIRS, {".hpp"}):
            for lineno, line in self.match_lines(strip_code(path.read_text()), pattern):
                self.report(path, lineno, "no-using-ns",
                            f"using namespace in a header leaks into every includer: {line}")

    def check_no_search_alloc(self) -> None:
        # Scope: the engines the SearchSpace refactor de-allocated.  yen.cpp
        # keeps legitimate per-query scratch (candidate heap, root prefix),
        # so it is deliberately not listed.
        engine_files = ["search_space.cpp", "dijkstra.cpp"]
        pattern = re.compile(
            r"(?:\.assign\s*\([^;]*num_nodes\s*\(\s*\))|"
            r"(?:std\s*::\s*vector\s*<[^;=]*>\s*\w*\s*[({][^;]*num_nodes\s*\(\s*\))")
        for name in engine_files:
            path = self.root / "src" / "graph" / name
            if not path.is_file():
                self.report(path, 1, "no-search-alloc",
                            "listed engine file is missing; update the rule's list "
                            "in tools/lint.py")
                continue
            for lineno, line in self.match_lines(strip_code(path.read_text()), pattern):
                self.report(path, lineno, "no-search-alloc",
                            f"per-call num_nodes-sized allocation in a search engine; "
                            f"use the SearchSpace workspace: {line}")

    def check_no_raw_getenv(self) -> None:
        # Every environment read flows through core/env.hpp (env_raw and the
        # typed helpers built on it): MTS_* knobs decide output-affecting
        # behaviour, so their one entry point must stay auditable.  The
        # env_raw implementation itself carries the suppression comment.
        pattern = re.compile(r"\b(?:std\s*::\s*)?(?:secure_)?getenv\s*\(")
        for path in self.files(LIB_DIRS, CXX_SUFFIXES):
            for lineno, line in self.match_lines(strip_code(path.read_text()), pattern):
                self.report(path, lineno, "no-raw-getenv",
                            f"raw getenv; use mts::env_raw / env_int / env_string "
                            f"(core/env.hpp): {line}")

    def check_no_raw_number_parse(self) -> None:
        # One number grammar (core/parse.hpp): a raw libc/stdlib parse
        # elsewhere brings back its own policy on whitespace, signs, bases,
        # inf/nan and overflow.
        pattern = re.compile(
            r"\b(?:std\s*::\s*)?(?:strto(?:d|f|ld|l|ll|ul|ull|imax|umax)|"
            r"sto(?:i|l|ll|ul|ull|f|d|ld)|ato(?:i|l|ll|f)|from_chars)\s*\(")
        reader = self.root / "src" / "core" / "parse.hpp"
        for path in self.files(LIB_DIRS, CXX_SUFFIXES):
            if path == reader:
                continue
            for lineno, line in self.match_lines(strip_code(path.read_text()), pattern):
                self.report(path, lineno, "no-raw-number-parse",
                            f"raw number parse; use parse_unsigned / parse_signed / "
                            f"parse_finite (core/parse.hpp): {line}")

    def check_no_mutable_global(self) -> None:
        # Namespace-scope mutable state is where cross-thread races and
        # cross-run nondeterminism breed.  Heuristic: clang-format keeps
        # namespace-scope declarations at column 0 (namespaces do not
        # indent), so a column-0 variable declaration without
        # const/constexpr is a mutable global.  thread_local is exempt
        # (per-thread, no cross-thread visibility); function declarations
        # are excluded by the `(`-free requirement (one-line declarations
        # only, like every rule here).
        decl = re.compile(
            r"^(?:inline\s+|static\s+)*"
            r"(?:[A-Za-z_][\w:]*(?:\s*<[^;=]*>)?[\s&*]+)+"
            r"(?P<name>\w+)\s*(?:\{[^{}]*\})?\s*(?:=[^;]*)?;")
        skip = re.compile(
            r"\b(?:const|constexpr|constinit|thread_local|using|typedef|extern|"
            r"return|friend|namespace|struct|class|enum|template|operator)\b")
        for path in self.files(LIB_DIRS, CXX_SUFFIXES):
            rel = str(path.relative_to(self.root))
            stripped = strip_code(path.read_text())
            stripped = re.sub(r"(?m)^\s*#.*$", "", stripped)
            for lineno, line in enumerate(stripped.splitlines(), start=1):
                if not line or line[0] in " \t}":
                    continue
                if "(" in line or skip.search(line):
                    continue
                match = decl.match(line)
                if not match:
                    continue
                name = match.group("name")
                if (rel, name) in MUTABLE_GLOBAL_ALLOW:
                    continue
                self.report(path, lineno, "no-mutable-global",
                            f"mutable namespace-scope state '{name}'; make it "
                            f"const, thread_local, or a function-local static "
                            f"behind an accessor: {line.strip()}")

    def check_no_unordered_output(self) -> None:
        # Hash-order iteration is the classic byte-determinism leak: an
        # unordered_map walked into a table/CSV/JSON writer emits rows in a
        # different order per process.  Heuristic: flag every range-for over
        # a name declared as std::unordered_map/set in the same file;
        # provably order-insensitive folds carry a suppression comment with
        # justification (the snapshot() phase merge in obs/metrics.cpp is
        # the exemplar).  A type alias (`using TagMap = std::unordered_map
        # <...>`) anywhere in src/ counts as an unordered type, and names
        # declared in src/ headers (struct members such as osm's `tags`)
        # are visible to every file.  Both are collected from the whole
        # tree, so --files mode sees them too.
        unordered = r"std\s*::\s*unordered_(?:map|set)\s*<"
        alias = re.compile(r"\busing\s+(\w+)\s*=\s*" + unordered)
        src = self.root / "src"
        everything = {p: strip_code(p.read_text())
                      for p in sorted(src.rglob("*")) if p.suffix in CXX_SUFFIXES}
        aliases = sorted({a for text in everything.values() for a in alias.findall(text)})
        types = unordered + r"[^;{}()]*>"
        if aliases:
            types = r"(?:" + types + r"|\b(?:" + "|".join(aliases) + r")\b)"
        decl = re.compile(types + r"\s+(\w+)")
        header_names = {n for p, text in everything.items() if p.suffix == ".hpp"
                        for n in decl.findall(text)}
        for path in self.files(LIB_DIRS, CXX_SUFFIXES):
            stripped = everything[path]
            names = set(decl.findall(stripped)) | header_names
            if not names:
                continue
            alternation = "|".join(re.escape(n) for n in sorted(names))
            loop = re.compile(
                r"for\s*\([^;()]*:\s*[\w.\->]*\b(?:" + alternation + r")\s*\)")
            for lineno, line in self.match_lines(stripped, loop):
                self.report(path, lineno, "no-unordered-output",
                            f"iteration over an unordered container; emit through "
                            f"an ordered structure (or justify with a suppression "
                            f"if the fold is order-insensitive): {line}")

    def check_no_shared_temp_dir(self) -> None:
        # gtest_discover_tests runs each case as its own process and ctest -j
        # runs them concurrently, so `temp_directory_path() / "fixed"` is one
        # directory shared by many processes: a TearDown's remove_all races
        # another case's writes.  unique_temp_dir() names the directory from
        # the pid and the running test; it is the one sanctioned caller.
        pattern = re.compile(r"\btemp_directory_path\s*\(")
        helper = self.root / "tests" / "test_util.hpp"
        for path in self.files(["tests"], CXX_SUFFIXES):
            if path == helper:
                continue
            text = path.read_text()
            raw = text.splitlines()  # the stripped line has lost its literal
            for lineno, _ in self.match_lines(strip_code(text), pattern):
                self.report(path, lineno, "no-shared-temp-dir",
                            f"shared scratch directory under temp_directory_path(); "
                            f"use mts::test::unique_temp_dir() (tests/test_util.hpp): "
                            f"{raw[lineno - 1].strip()}")

    def check_unset_option(self) -> None:
        # A settable field that no program, bench or test ever sets is a
        # configuration nothing runs.  Fields are the depth-one declarations
        # of every `struct ...Options` in src/ (member functions, having a
        # `(`, are skipped); a setter is any `.name =` / `->name =`
        # (compound assignment and designated initializers included) in the
        # scanned trees, matched by name alone (a `filter` set on one struct
        # counts for every struct's `filter`).  Both sides are collected
        # from the whole tree, so --files mode reports only structs
        # declared in the listed files.
        struct = re.compile(r"\bstruct\s+(\w*Options)\s*\{")
        field = re.compile(r"(\w+)\s*(?:=[^;]*|\{[^;]*\})?;\s*$")
        declared: list[tuple[Path, int, str, str]] = []
        for path in self.files(LIB_DIRS, CXX_SUFFIXES):
            stripped = strip_code(path.read_text())
            for match in struct.finditer(stripped):
                depth, start = 1, match.end()
                end = start
                while end < len(stripped) and depth > 0:
                    depth += {"{": 1, "}": -1}.get(stripped[end], 0)
                    end += 1
                body, depth = stripped[start:end - 1], 0
                lineno = stripped.count("\n", 0, start) + 1
                for offset, line in enumerate(body.split("\n")):
                    outer = depth == 0
                    depth += line.count("{") - line.count("}")
                    decl = field.search(line)
                    if outer and decl and "(" not in line and len(line.split()) > 1:
                        declared.append((path, lineno + offset, match.group(1),
                                         decl.group(1)))
        if not declared:
            return
        setters = "|".join(sorted({re.escape(name) for _, _, _, name in declared}))
        assign = re.compile(r"(?:\.|->)\s*(" + setters + r")\s*(?:[-+*/|&^]?=)(?!=)")
        assigned: set[str] = set()
        for base in LIB_DIRS + ["bench", "examples", "perfbench", "tests"]:
            for path in sorted((self.root / base).rglob("*")):
                if path.suffix in CXX_SUFFIXES:
                    assigned.update(assign.findall(strip_code(path.read_text())))
        for path, lineno, owner, name in declared:
            if name not in assigned:
                self.report(path, lineno, "unset-option",
                            f"{owner}::{name} is set by no program, bench or test; "
                            f"make it a named constant next to its reader")

    def check_ci_workflow(self) -> None:
        workflow = self.root / ".github" / "workflows" / "ci.yml"
        if self.only_files is not None and workflow.resolve() not in self.only_files:
            return
        if not workflow.is_file():
            self.report(workflow, 1, "ci-workflow", "missing .github/workflows/ci.yml")
            return
        try:
            import yaml
        except ImportError:
            # PyYAML is in the dev image and on GitHub runners; without it
            # the YAML check degrades to existence-only rather than failing
            # the whole lint gate.
            print("lint: note: PyYAML unavailable, ci-workflow check skipped",
                  file=sys.stderr)
            return
        try:
            doc = yaml.safe_load(workflow.read_text())
        except yaml.YAMLError as err:
            line = getattr(getattr(err, "problem_mark", None), "line", 0) + 1
            self.report(workflow, line, "ci-workflow", f"invalid YAML: {err}")
            return
        jobs = doc.get("jobs") if isinstance(doc, dict) else None
        if not isinstance(jobs, dict) or not jobs:
            self.report(workflow, 1, "ci-workflow", "workflow defines no jobs")
            return
        presets: set[str] = set()
        for job in jobs.values():
            if not isinstance(job, dict):
                continue
            matrix = (job.get("strategy") or {}).get("matrix") or {}
            for value in matrix.get("preset", []):
                presets.add(str(value))
        missing = {"dev", "asan", "tsan", "coverage"} - presets
        if missing:
            self.report(workflow, 1, "ci-workflow",
                        f"job matrix does not cover ci.sh leg(s): {', '.join(sorted(missing))}")
        # The static-analysis gate must stay in hosted CI too: either its own
        # job or a matrix leg named tidy (./ci.sh tidy).
        if "tidy" not in jobs and "tidy" not in presets:
            self.report(workflow, 1, "ci-workflow",
                        "workflow has no tidy leg (clang-tidy gate): add a `tidy` "
                        "job or matrix preset running ./ci.sh tidy")

    # --------------------------------------------------------------------

    def run(self) -> int:
        # A wrong --root must not silently pass the gate.
        if not (self.root / "src").is_dir():
            print(f"lint: no src/ under {self.root}; wrong --root?", file=sys.stderr)
            return 2
        self.check_pragma_once()
        self.check_no_rand()
        self.check_no_naked_new()
        self.check_no_float()
        self.check_require_throws()
        self.check_no_bare_catch()
        self.check_no_const_cast_top()
        self.check_no_raw_clock()
        self.check_no_using_namespace()
        self.check_no_search_alloc()
        self.check_no_raw_getenv()
        self.check_no_raw_number_parse()
        self.check_no_mutable_global()
        self.check_no_unordered_output()
        self.check_no_shared_temp_dir()
        self.check_unset_option()
        self.check_ci_workflow()
        # Stable output order regardless of rule execution order, so diffs
        # of lint output (and the fixture tests) are deterministic.
        self.violations.sort(key=lambda v: (str(v[0]), v[1], v[2], v[3]))
        for path, lineno, rule, message in self.violations:
            rel = path.relative_to(self.root)
            print(f"{rel}:{lineno}: [{rule}] {message}")
        if self.violations:
            print(f"lint: {len(self.violations)} violation(s)", file=sys.stderr)
            return 1
        print("lint: ok")
        return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("--files", nargs="+", type=Path, default=None,
                        metavar="PATH",
                        help="incremental mode: lint only these files (paths "
                             "relative to --root or absolute); directory-scoped "
                             "rules skip files outside the given set")
    args = parser.parse_args()
    return Linter(args.root.resolve(), only_files=args.files).run()


if __name__ == "__main__":
    sys.exit(main())
