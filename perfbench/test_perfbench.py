#!/usr/bin/env python3
"""Self-tests of the benchmark: determinism, seed sensitivity, failure counting,
metric naming, and the no-sources failure mode.

    python3 perfbench/test_perfbench.py

Builds the program like perfbench/run.py does, then runs short workloads
(about two minutes in all on four cores).
"""
import json
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (perfbench/run.py: build() and the program path)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def drive(workload, seed, trace, *extra, seconds="1"):
    """Runs the program; returns (exit code, facts dict, result dict or None)."""
    proc = subprocess.run(
        [str(run.PROGRAM), "--workload", workload, "--seed", str(seed), "--seconds", seconds,
         "--trace", str(trace), *extra],
        env=run.program_env(), cwd=str(run.ROOT), capture_output=True, text=True, timeout=170)
    facts = {}
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("# ") and "=" in line:
            key, _, value = line[2:].partition("=")
            facts[key] = value
        elif line.startswith("{"):
            result = json.loads(line)
    return proc.returncode, facts, result


def counters(result):
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


class BenchmarkSpec(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
            self.assertTrue(re.fullmatch(r"[A-Za-z0-9_.-]+", name), name)
        self.assertEqual(len(names), len(set(names)))

    def test_setup_metric_present(self):
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in SPEC["end_to_end"])}])


class Program(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def assert_declared(self, result, declared):
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in declared})

    def check_repeatable(self, workload):
        code_a, facts_a, a = drive(workload, 5, 1)
        code_b, facts_b, b = drive(workload, 5, 1)
        code_c, facts_c, c = drive(workload, 6, 0)
        self.assertEqual((code_a, code_b, code_c), (0, 0, 0))
        self.assertTrue(a["correct"] and b["correct"] and c["correct"])
        self.assertEqual(facts_a["inputs_digest"], facts_b["inputs_digest"])
        self.assertNotEqual(facts_a["inputs_digest"], facts_c["inputs_digest"])
        self.assertEqual(counters(a), counters(b))
        self.assertGreater(sum(counters(a).values()), 0)
        self.assert_declared(a, SPEC["per_layer"])
        self.assert_declared(c, SPEC["end_to_end"])
        for value in c["metrics"].values():
            self.assertGreater(value["value"], 0)

    def test_table_inputs_and_counters_repeat(self):
        self.check_repeatable("table_boston_length")

    def test_serve_inputs_and_counters_repeat(self):
        self.check_repeatable("serve_mixed")

    def test_planted_wrong_answers_fail_the_run(self):
        for workload in ("table_boston_length", "serve_route", "serve_mixed"):
            with self.subTest(workload=workload):
                code, _, result = drive(workload, 7, 0, "--plant-wrong-answer")
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_rejects_bad_arguments(self):
        for args in (["--workload", "nope", "--seed", "1"],
                     ["--workload", "serve_route", "--seed", "x"],
                     ["--workload", "serve_route", "--seed", "1", "--trace", "2"]):
            proc = subprocess.run([str(run.PROGRAM), *args], capture_output=True, text=True)
            self.assertEqual(proc.returncode, 2, args)
            self.assertEqual(proc.stdout, "")


class WithoutSources(unittest.TestCase):
    def test_fails_without_repository_sources(self):
        run.BUILD.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.BUILD) as tmp:
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, pathlib.Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [*SPEC["command"], "--workload", "serve_route", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
