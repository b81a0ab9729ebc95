#!/usr/bin/env python3
"""Tests for tools/bench_compare.py against a fake bench binary.

The fake bench writes a fixed metrics JSON, so each test knows the
counters the tool will read.  Runs via the `bench_compare_tool` ctest
entry or directly: python3 tests/tools/bench_compare_test.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
TOOL = REPO_ROOT / "tools" / "bench_compare.py"
sys.path.insert(0, str(REPO_ROOT / "tools"))
sys.dont_write_bytecode = True
import bench_compare  # noqa: E402  (the gated-counter list under test)


def fake_bench(directory: Path, counters: dict[str, int]) -> Path:
    """An executable that writes `counters` where the table02 bench would."""
    bench = directory / "fake_table02"
    metrics = json.dumps({"counters": counters})
    bench.write_text(
        f"#!{sys.executable}\n"
        "from pathlib import Path\n"
        f"Path('bench_results/table02_metrics.json').write_text({metrics!r})\n")
    bench.chmod(0o755)
    return bench


def run_tool(bench: Path, baseline: Path, *extra: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(TOOL), "--bench", str(bench), "--baseline", str(baseline), *extra],
        capture_output=True, text=True, check=False, env=dict(os.environ))


class BenchCompareTest(unittest.TestCase):
    def setUp(self) -> None:
        self._tmp = tempfile.TemporaryDirectory(prefix="bench_compare_test_")
        self.dir = Path(self._tmp.name)
        self.counters = {name: i + 1 for i, name in enumerate(bench_compare.GATED_COUNTERS)}
        self.bench = fake_bench(self.dir, self.counters)
        self.baseline = self.dir / "BENCH.json"

    def tearDown(self) -> None:
        self._tmp.cleanup()

    def test_write_baseline_keeps_other_blocks(self) -> None:
        trajectory = {"workloads": {"table_boston_length": {"pairs": 10}}}
        self.baseline.write_text(json.dumps(
            {"counters": {"lp.pivots": -1}, "perfbench": trajectory}))
        result = run_tool(self.bench, self.baseline, "--write-baseline")
        self.assertEqual(result.returncode, 0, result.stderr)
        written = json.loads(self.baseline.read_text())
        self.assertEqual(written["perfbench"], trajectory)
        self.assertEqual(written["counters"], self.counters)
        self.assertEqual(written["env"], bench_compare.BENCH_ENV)

    def test_gate_passes_on_match_and_fails_on_drift(self) -> None:
        self.assertEqual(run_tool(self.bench, self.baseline, "--write-baseline").returncode, 0)
        self.assertEqual(run_tool(self.bench, self.baseline).returncode, 0)
        drifted = dict(self.counters)
        drifted["yen.spur_searches"] += 1
        result = run_tool(fake_bench(self.dir, drifted), self.baseline)
        self.assertEqual(result.returncode, bench_compare.EXIT_DRIFT)
        self.assertIn("yen.spur_searches", result.stderr)


if __name__ == "__main__":
    unittest.main()
