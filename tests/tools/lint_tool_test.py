#!/usr/bin/env python3
"""Fixture suite for tools/lint.py: every rule must fire on a synthetic
violating snippet with the exact rule id, path, and line number, and stay
quiet on the sanctioned patterns (allowlist entries, suppressions).

Each test builds a throwaway repo skeleton (src/ with the search engine
files the no-search-alloc rule lists, plus a healthy workflow file), plants
one violation, and asserts the reported triple.  Runs via the
`lint_tool` ctest entry or directly: python3 tests/tools/lint_tool_test.py
"""

from __future__ import annotations

import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
LINT = REPO_ROOT / "tools" / "lint.py"

# A workflow that satisfies the ci-workflow rule (all ci.sh legs + tidy),
# so fixtures exercising other rules see no background noise.
HEALTHY_WORKFLOW = """\
jobs:
  ci:
    strategy:
      matrix:
        preset: [dev, asan, tsan, coverage, tidy]
"""

VIOLATION_RE = re.compile(r"^(?P<path>.+?):(?P<line>\d+): \[(?P<rule>[a-z-]+)\] ")


def run_lint(root: Path, *extra: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(LINT), "--root", str(root), *extra],
        capture_output=True, text=True, check=False)


def violations(proc: subprocess.CompletedProcess[str]) -> list[tuple[str, int, str]]:
    found = []
    for line in proc.stdout.splitlines():
        match = VIOLATION_RE.match(line)
        if match:
            found.append((match.group("path"), int(match.group("line")),
                          match.group("rule")))
    return found


def have_yaml() -> bool:
    try:
        import yaml  # noqa: F401
        return True
    except ImportError:
        return False


class LintFixtureTest(unittest.TestCase):
    def setUp(self) -> None:
        self._tmp = tempfile.TemporaryDirectory(prefix="mts-lint-fixture-")
        self.root = Path(self._tmp.name)
        (self.root / "src").mkdir()
        workflow = self.root / ".github" / "workflows" / "ci.yml"
        workflow.parent.mkdir(parents=True)
        workflow.write_text(HEALTHY_WORKFLOW)
        for engine in ("search_space.cpp", "dijkstra.cpp"):
            self.write(f"src/graph/{engine}", "int engine();\n")

    def tearDown(self) -> None:
        self._tmp.cleanup()

    def write(self, rel: str, text: str) -> None:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)

    def assert_fires(self, rel: str, line: int, rule: str) -> None:
        proc = run_lint(self.root)
        self.assertIn((rel, line, rule), violations(proc),
                      f"expected {rel}:{line} [{rule}]; lint said:\n{proc.stdout}")
        self.assertEqual(proc.returncode, 1, proc.stderr)

    def assert_clean(self) -> None:
        proc = run_lint(self.root)
        self.assertEqual(violations(proc), [], proc.stdout)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("lint: ok", proc.stdout)

    # --- one fixture per rule -------------------------------------------

    def test_pragma_once(self) -> None:
        self.write("src/core/bad.hpp", "int answer();\n")
        self.assert_fires("src/core/bad.hpp", 1, "pragma-once")

    def test_no_rand(self) -> None:
        self.write("src/core/bad.cpp",
                   "#include <cstdlib>\n"
                   "int roll() {\n"
                   "  return std::rand();\n"
                   "}\n")
        self.assert_fires("src/core/bad.cpp", 3, "no-rand")

    def test_no_naked_new(self) -> None:
        self.write("src/core/bad.cpp",
                   "struct Node {};\n"
                   "Node* make() {\n"
                   "  return new Node();\n"
                   "}\n")
        self.assert_fires("src/core/bad.cpp", 3, "no-naked-new")

    def test_no_float(self) -> None:
        self.write("src/graph/bad.cpp",
                   "double widen(double w) {\n"
                   "  float narrow = 1.0;\n"
                   "  return w + narrow;\n"
                   "}\n")
        self.assert_fires("src/graph/bad.cpp", 2, "no-float")

    def test_require_throws(self) -> None:
        self.write("src/core/bad.cpp",
                   "#include \"core/error.hpp\"\n"
                   "void check(bool ok) {\n"
                   "  if (!ok) throw PreconditionViolation{\"nope\"};\n"
                   "}\n")
        self.assert_fires("src/core/bad.cpp", 3, "require-throws")

    def test_no_using_namespace_in_header(self) -> None:
        self.write("src/core/bad.hpp",
                   "#pragma once\n"
                   "using namespace std;\n")
        self.assert_fires("src/core/bad.hpp", 2, "no-using-ns")

    def test_no_const_cast_top(self) -> None:
        self.write("src/graph/bad.cpp",
                   "#include <queue>\n"
                   "struct Item {};\n"
                   "Item steal(std::priority_queue<Item>& q) {\n"
                   "  return std::move(const_cast<Item&>(q.top()));\n"
                   "}\n")
        self.assert_fires("src/graph/bad.cpp", 4, "no-const-cast-top")

    def test_no_bare_catch(self) -> None:
        self.write("src/exp/bad.cpp",
                   "void risky();\n"
                   "void swallow() {\n"
                   "  try {\n"
                   "    risky();\n"
                   "  } catch (...) {\n"
                   "  }\n"
                   "}\n")
        self.assert_fires("src/exp/bad.cpp", 5, "no-bare-catch")

    def test_no_bare_catch_rethrow_is_fine(self) -> None:
        self.write("src/exp/ok.cpp",
                   "void risky();\n"
                   "void forward() {\n"
                   "  try {\n"
                   "    risky();\n"
                   "  } catch (...) {\n"
                   "    throw;\n"
                   "  }\n"
                   "}\n")
        self.assert_clean()

    def test_no_raw_clock(self) -> None:
        self.write("src/exp/bad.cpp",
                   "#include <chrono>\n"
                   "double stamp() {\n"
                   "  auto t = std::chrono::steady_clock::now();\n"
                   "  return t.time_since_epoch().count();\n"
                   "}\n")
        self.assert_fires("src/exp/bad.cpp", 3, "no-raw-clock")

    def test_no_search_alloc(self) -> None:
        self.write("src/graph/dijkstra.cpp",
                   "#include <vector>\n"
                   "struct Graph { int num_nodes() const; };\n"
                   "void run(const Graph& g) {\n"
                   "  std::vector<double> dist(g.num_nodes());\n"
                   "}\n")
        self.assert_fires("src/graph/dijkstra.cpp", 4, "no-search-alloc")

    def test_no_search_alloc_missing_engine_file(self) -> None:
        # A renamed or deleted engine must not switch the rule off silently.
        (self.root / "src" / "graph" / "dijkstra.cpp").unlink()
        self.assert_fires("src/graph/dijkstra.cpp", 1, "no-search-alloc")

    def test_no_raw_getenv(self) -> None:
        self.write("src/exp/bad.cpp",
                   "#include <cstdlib>\n"
                   "const char* knob() {\n"
                   "  return std::getenv(\"MTS_SCALE\");\n"
                   "}\n")
        self.assert_fires("src/exp/bad.cpp", 3, "no-raw-getenv")

    def test_no_mutable_global(self) -> None:
        self.write("src/core/bad.hpp",
                   "#pragma once\n"
                   "int g_call_count = 0;\n")
        self.assert_fires("src/core/bad.hpp", 2, "no-mutable-global")

    def test_no_mutable_global_exemptions(self) -> None:
        # const, thread_local, and the registered override singletons are
        # all sanctioned forms of namespace-scope state.
        self.write("src/core/ok.hpp",
                   "#pragma once\n"
                   "#include <atomic>\n"
                   "constexpr int kLimit = 8;\n"
                   "thread_local int t_depth = 0;\n")
        self.write("src/obs/metrics.hpp",
                   "#pragma once\n"
                   "#include <atomic>\n"
                   "inline std::atomic<int> g_metrics_override{-1};\n")
        self.assert_clean()

    def test_no_unordered_output(self) -> None:
        self.write("src/exp/bad.cpp",
                   "#include <unordered_map>\n"
                   "int total(const std::unordered_map<int, int>& unused);\n"
                   "void emit() {\n"
                   "  std::unordered_map<int, int> table;\n"
                   "  for (const auto& [key, value] : table) {\n"
                   "  }\n"
                   "}\n")
        self.assert_fires("src/exp/bad.cpp", 5, "no-unordered-output")

    def test_no_unordered_output_follows_aliases_across_files(self) -> None:
        # The container type hides behind an alias declared in a header, and
        # the walked member is declared there too (osm::TagMap's shape).
        self.write("src/osm/model.hpp",
                   "#pragma once\n"
                   "#include <string>\n"
                   "#include <unordered_map>\n"
                   "using TagMap = std::unordered_map<std::string, std::string>;\n"
                   "struct Way {\n"
                   "  TagMap tags;\n"
                   "};\n")
        self.write("src/osm/xml.cpp",
                   "#include \"osm/model.hpp\"\n"
                   "void emit(const Way& way) {\n"
                   "  for (const auto& [k, v] : way.tags) {\n"
                   "  }\n"
                   "}\n")
        self.assert_fires("src/osm/xml.cpp", 3, "no-unordered-output")
        proc = run_lint(self.root, "--files", "src/osm/xml.cpp")
        self.assertEqual(violations(proc), [("src/osm/xml.cpp", 3, "no-unordered-output")],
                         proc.stdout)

    def test_no_shared_temp_dir(self) -> None:
        self.write("tests/cli/bad_test.cpp",
                   "#include <filesystem>\n"
                   "void setup() {\n"
                   "  const auto dir = std::filesystem::temp_directory_path() / \"mts_cli_test\";\n"
                   "}\n")
        self.assert_fires("tests/cli/bad_test.cpp", 3, "no-shared-temp-dir")

    def test_no_shared_temp_dir_catches_a_name_from_a_variable(self) -> None:
        self.write("tests/exp/bad_test.cpp",
                   "#include <filesystem>\n"
                   "#include <string>\n"
                   "auto fresh(const std::string& name) {\n"
                   "  return std::filesystem::temp_directory_path() / name;\n"
                   "}\n")
        self.assert_fires("tests/exp/bad_test.cpp", 4, "no-shared-temp-dir")

    def test_no_shared_temp_dir_allows_the_helper(self) -> None:
        self.write("tests/test_util.hpp",
                   "#pragma once\n"
                   "#include <filesystem>\n"
                   "inline auto unique_temp_dir() {\n"
                   "  return std::filesystem::temp_directory_path() / \"mts_1_Suite_Case\";\n"
                   "}\n")
        self.assert_clean()

    def test_unset_option(self) -> None:
        self.write("src/sim/sim.hpp",
                   "#pragma once\n"
                   "struct SimOptions {\n"
                   "  double step_s = 1.0;\n"
                   "  /// Nothing sets this one.\n"
                   "  double bpr_alpha = 0.15;\n"
                   "  int lanes{2};\n"
                   "  [[nodiscard]] bool valid() const { return step_s > 0; }\n"
                   "};\n")
        self.write("bench/run.cpp",
                   "#include \"sim/sim.hpp\"\n"
                   "void run(SimOptions* o) {\n"
                   "  SimOptions a{.step_s = 2.0};\n"
                   "  o->lanes += 1;\n"
                   "  if (a.bpr_alpha == 0.15) {}\n"
                   "}\n")
        proc = run_lint(self.root)
        self.assertEqual(violations(proc), [("src/sim/sim.hpp", 5, "unset-option")],
                         proc.stdout)
        self.assertIn("SimOptions::bpr_alpha", proc.stdout)
        self.write("tests/sim/sim_test.cpp",
                   "#include \"sim/sim.hpp\"\n"
                   "void set(SimOptions& o) { o.bpr_alpha = 0.2; }\n")
        self.assert_clean()

    def test_ci_workflow_missing_file(self) -> None:
        (self.root / ".github" / "workflows" / "ci.yml").unlink()
        self.assert_fires(".github/workflows/ci.yml", 1, "ci-workflow")

    @unittest.skipUnless(have_yaml(), "PyYAML unavailable")
    def test_ci_workflow_missing_legs(self) -> None:
        self.write(".github/workflows/ci.yml",
                   "jobs:\n"
                   "  ci:\n"
                   "    strategy:\n"
                   "      matrix:\n"
                   "        preset: [dev, asan]\n")
        proc = run_lint(self.root)
        rules = [v for v in violations(proc) if v[2] == "ci-workflow"]
        # Both gaps are reported: the tsan leg and the tidy gate.
        self.assertEqual(len(rules), 2, proc.stdout)
        self.assertIn("tsan", proc.stdout)
        self.assertIn("tidy", proc.stdout)

    @unittest.skipUnless(have_yaml(), "PyYAML unavailable")
    def test_ci_workflow_requires_the_coverage_leg(self) -> None:
        self.write(".github/workflows/ci.yml",
                   "jobs:\n"
                   "  ci:\n"
                   "    strategy:\n"
                   "      matrix:\n"
                   "        preset: [dev, asan, tsan, tidy]\n")
        self.assert_fires(".github/workflows/ci.yml", 1, "ci-workflow")
        self.assertIn("coverage", run_lint(self.root).stdout)

    # --- suppressions ----------------------------------------------------

    def test_suppression_on_previous_line(self) -> None:
        self.write("src/exp/ok.cpp",
                   "#include <cstdlib>\n"
                   "const char* knob() {\n"
                   "  // bootstrap read, audited here: mts-lint: allow(no-raw-getenv)\n"
                   "  return std::getenv(\"MTS_SCALE\");\n"
                   "}\n")
        self.assert_clean()

    def test_suppression_on_same_line(self) -> None:
        self.write("src/exp/ok.cpp",
                   "#include <cstdlib>\n"
                   "const char* knob() {\n"
                   "  return std::getenv(\"MTS_X\");  // mts-lint: allow(no-raw-getenv)\n"
                   "}\n")
        self.assert_clean()

    def test_suppression_is_rule_specific(self) -> None:
        # An allow() for a different rule must not mask the violation.
        self.write("src/exp/bad.cpp",
                   "#include <cstdlib>\n"
                   "const char* knob() {\n"
                   "  // mts-lint: allow(no-float)\n"
                   "  return std::getenv(\"MTS_X\");\n"
                   "}\n")
        self.assert_fires("src/exp/bad.cpp", 4, "no-raw-getenv")

    # --- incremental mode and output contract ----------------------------

    def test_files_mode_restricts_scope(self) -> None:
        self.write("src/core/one.cpp", "double a() {\n  float x = 1.0;\n  return x;\n}\n")
        self.write("src/core/two.cpp", "double b() {\n  float x = 2.0;\n  return x;\n}\n")
        proc = run_lint(self.root, "--files", "src/core/one.cpp")
        self.assertEqual(violations(proc), [("src/core/one.cpp", 2, "no-float")],
                         proc.stdout)

    def test_files_mode_skips_workflow_unless_listed(self) -> None:
        self.write(".github/workflows/ci.yml", "jobs: {}\n")
        self.write("src/core/one.cpp", "double a() {\n  float x = 1.0;\n  return x;\n}\n")
        proc = run_lint(self.root, "--files", "src/core/one.cpp")
        self.assertEqual([v[2] for v in violations(proc)], ["no-float"], proc.stdout)
        if have_yaml():
            proc = run_lint(self.root, "--files", ".github/workflows/ci.yml")
            self.assertEqual([v[2] for v in violations(proc)], ["ci-workflow"],
                             proc.stdout)

    def test_output_is_sorted(self) -> None:
        # Two files, multiple rules each; output must be (path, line, rule)
        # sorted regardless of rule execution order inside lint.py.
        self.write("src/core/zeta.cpp",
                   "double late() {\n"
                   "  float x = 1.0;\n"
                   "  return x;\n"
                   "}\n")
        self.write("src/core/alpha.cpp",
                   "#include <cstdlib>\n"
                   "double early() {\n"
                   "  float x = 1.0;\n"
                   "  const char* v = std::getenv(\"MTS_X\");\n"
                   "  return v != nullptr ? x : 0.0;\n"
                   "}\n")
        proc = run_lint(self.root)
        found = violations(proc)
        self.assertEqual(found, sorted(found), proc.stdout)
        self.assertEqual([v[0] for v in found],
                         ["src/core/alpha.cpp", "src/core/alpha.cpp",
                          "src/core/zeta.cpp"], proc.stdout)

    def test_clean_tree_passes(self) -> None:
        self.write("src/core/ok.cpp",
                   "int answer() {\n"
                   "  return 42;\n"
                   "}\n")
        self.assert_clean()

    def test_wrong_root_is_an_error(self) -> None:
        with tempfile.TemporaryDirectory() as empty:
            proc = run_lint(Path(empty))
            self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
