#!/usr/bin/env python3
"""Fails when gcov reports a src/ function that no test ran.

    python3 tools/unrun_functions.py --build build-coverage [--root .] [--gcov gcov]

Run it after a `--coverage` build has run its tests (`./ci.sh coverage`).
Every .gcda counter file under --build is read with
`gcov --json-format --stdout`.  A function defined in a file under
<root>/src counts as run when any translation unit that compiled it ran it:
inline and header functions are emitted into many units, and a
constructor's or destructor's variants (complete, base, deleting) share one
name, so counts are summed per (file, line, demangled name).

Exit status: 0 when every such function ran; 1 with one
`path:line: function` line per unrun function; 2 when there is nothing to
read (no .gcda files, or gcov failed).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path


def fail(message: str) -> int:
    print(f"unrun_functions: {message}", file=sys.stderr)
    return 2


def gcov_documents(gcov: str, gcda_files: list[Path]) -> list[dict]:
    """The JSON documents gcov prints for `gcda_files`, one per file."""
    # gcov resolves each .gcno next to its .gcda; a scratch working
    # directory keeps any stray output out of the tree.
    with tempfile.TemporaryDirectory(prefix="unrun_functions_") as scratch:
        proc = subprocess.run(
            [gcov, "--json-format", "--stdout", *[str(p.resolve()) for p in gcda_files]],
            cwd=scratch, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{gcov} exited {proc.returncode}: {proc.stderr.strip()}")
    decoder = json.JSONDecoder()
    documents = []
    text = proc.stdout
    pos = 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return documents
        document, pos = decoder.raw_decode(text, pos)
        documents.append(document)


def unrun_functions(documents: list[dict], src: Path) -> tuple[int, list[str]]:
    """(functions seen under `src`, sorted `path:line: name` of unrun ones)."""
    counts: dict[tuple[str, int, str], int] = {}
    for document in documents:
        cwd = Path(document.get("current_working_directory", "."))
        for entry in document.get("files", []):
            path = Path(entry["file"])
            if not path.is_absolute():
                path = cwd / path
            path = path.resolve()
            if src not in path.parents:
                continue
            for function in entry.get("functions", []):
                name = function.get("demangled_name") or function["name"]
                key = (str(path), int(function["start_line"]), name)
                counts[key] = counts.get(key, 0) + int(function["execution_count"])
    root = src.parent
    unrun = sorted((Path(path).relative_to(root).as_posix(), line, name)
                   for (path, line, name), count in counts.items() if count == 0)
    return len(counts), [f"{path}:{line}: {name}" for path, line, name in unrun]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", required=True, type=Path,
                        help="build tree whose tests have run (holds the .gcda files)")
    parser.add_argument("--root", default=Path("."), type=Path,
                        help="repository root; functions under <root>/src are checked")
    parser.add_argument("--gcov", default="gcov", help="gcov executable matching the compiler")
    args = parser.parse_args()

    src = (args.root / "src").resolve()
    if not src.is_dir():
        return fail(f"no src/ under {args.root}")
    gcda_files = sorted(args.build.rglob("*.gcda"))
    if not gcda_files:
        return fail(f"no .gcda files under {args.build}: build with --coverage and run the tests")
    try:
        documents = gcov_documents(args.gcov, gcda_files)
    except (OSError, RuntimeError, json.JSONDecodeError) as err:
        return fail(str(err))

    total, unrun = unrun_functions(documents, src)
    if total == 0:
        return fail(f"gcov reported no function under {src}")
    for line in unrun:
        print(line)
    if unrun:
        print(f"unrun_functions: {len(unrun)} of {total} src/ functions never ran",
              file=sys.stderr)
        return 1
    print(f"unrun_functions: all {total} src/ functions ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
