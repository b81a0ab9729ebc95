#!/usr/bin/env python3
"""Tests for tools/unrun_functions.py against tiny --coverage programs.

Each test lays out a fake repository (sources under src/, a driver under
tests/), compiles it with `--coverage`, runs it, and checks what the tool
reports.  Runs via the `unrun_functions_tool` ctest entry or directly:
python3 tests/tools/unrun_functions_test.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
TOOL = REPO_ROOT / "tools" / "unrun_functions.py"
CXX = shutil.which("g++")
GCOV = shutil.which("gcov")

# A header function both units emit out of line; only lib.cpp's call runs.
# The linker keeps one copy, so one unit's counters read 0 for it.
HEADER = """\
#pragma once
[[gnu::noinline]] inline int twice(int x) { return 2 * x; }
"""

LIBRARY = """\
#include "lib.hpp"
int used(int x) { return twice(x) + 1; }
int unused(int x) {
  return x - 1;
}
"""

OTHER = """\
#include "lib.hpp"
int other(int x) { return x > 100 ? twice(x) : x + 3; }
"""

DRIVER = """\
int used(int x);
int unused(int x);
int other(int x);
int never_called_in_tests(int x) { return x; }
int main(int argc, char**) {
  int total = used(argc) + other(argc);
  if (argc > 5) total += unused(argc);
  return total > 0 ? 0 : 1;
}
"""


class UnrunFunctionsTest(unittest.TestCase):
    def setUp(self) -> None:
        self._tmp = tempfile.TemporaryDirectory(prefix="unrun_functions_test_")
        self.root = Path(self._tmp.name)
        self.build = self.root / "build"
        self.build.mkdir()
        self.write("src/lib.hpp", HEADER)
        self.write("src/lib.cpp", LIBRARY)
        self.write("src/other.cpp", OTHER)

    def tearDown(self) -> None:
        self._tmp.cleanup()

    def write(self, relative: str, text: str) -> None:
        path = self.root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)

    def compile_and_run(self, driver: str) -> None:
        self.write("tests/driver.cpp", driver)
        objects = []
        for source in ("src/lib.cpp", "src/other.cpp", "tests/driver.cpp"):
            obj = self.build / (Path(source).name + ".o")
            subprocess.run([CXX, "--coverage", "-O1", "-c", str(self.root / source), "-o", str(obj)],
                           check=True, cwd=self.build)
            objects.append(str(obj))
        program = self.build / "program"
        subprocess.run([CXX, "--coverage", *objects, "-o", str(program)], check=True)
        subprocess.run([str(program)], check=True, cwd=self.build)

    def run_tool(self) -> subprocess.CompletedProcess[str]:
        return subprocess.run(
            [sys.executable, str(TOOL), "--build", str(self.build), "--root", str(self.root),
             "--gcov", GCOV or "gcov"],
            capture_output=True, text=True, check=False)

    @unittest.skipUnless(CXX and GCOV, "g++/gcov unavailable")
    def test_names_each_unrun_src_function_with_its_line(self) -> None:
        self.compile_and_run(DRIVER)
        proc = self.run_tool()
        self.assertEqual(proc.returncode, 1, proc.stderr)
        # Only unused() is reported: twice() ran although other.cpp never
        # called it, and the unrun driver function outside src/ is ignored.
        self.assertEqual(proc.stdout.splitlines(), ["src/lib.cpp:3: unused(int)"])
        self.assertIn("1 of 4 src/ functions never ran", proc.stderr)

    @unittest.skipUnless(CXX and GCOV, "g++/gcov unavailable")
    def test_passes_when_every_src_function_ran(self) -> None:
        self.compile_and_run(DRIVER.replace("argc > 5", "argc > 0"))
        proc = self.run_tool()
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(proc.stdout.strip(), "unrun_functions: all 4 src/ functions ran")

    def test_refuses_a_tree_without_counters(self) -> None:
        proc = self.run_tool()
        self.assertEqual(proc.returncode, 2)
        self.assertIn("no .gcda files", proc.stderr)


if __name__ == "__main__":
    unittest.main()
