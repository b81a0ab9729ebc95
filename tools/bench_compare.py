#!/usr/bin/env python3
"""Deterministic work-counter regression gate.

Runs the table02 bench at a small, seed-pinned configuration with
MTS_METRICS=1 and compares the *work counters* the pipeline emits
(dijkstra relaxation effort, CH serving effort, LP pivots, Yen pruning)
against a checked-in baseline (BENCH_PR15.json).  These counters are
exact functions of the input — bit-identical across machines and thread
counts — so the comparison tolerance is zero: any drift means the
algorithms did different work, which is either an intended change
(re-baseline with --write-baseline) or a performance
regression/correctness bug worth catching.

Wall-clock is measured and *reported* alongside the counters, but never
gated — timing noise on shared CI runners would make a wall-clock gate
flaky, while counter drift is deterministic.

Counters deliberately NOT gated:
  * dijkstra.workspace_reuses / ch.workspace_reuses — the first search
    on each pool thread allocates instead of reusing, so the value
    depends on how the scheduler spreads tasks across threads.
  * dijkstra.runs and anything downstream of wall-clock.

Exit codes:
  0  counters match (or baseline written)
  1  drift, bad metrics, bench failure
  3  a gated counter is missing from the baseline or the run — the
     distinct code lets CI distinguish "schema out of date" (somebody
     added a counter without re-baselining) from real drift.

Wired into ctest as `bench_gate` (root CMakeLists.txt) and run by the
dev leg of ci.sh plus the hosted bench CI job.  Usage:

  python3 tools/bench_compare.py --bench build/bench/table02_boston_length \
      --baseline BENCH_PR15.json [--write-baseline] [--report BASE]

Standalone zero-gate mode (no bench run, no baseline): assert that the
named counters are zero in an already-written metrics JSON.  Used by the
ci.sh unloaded routed smoke to prove the overload machinery is inert when
nothing is overloaded — a counter that is absent from the file counts as
zero, since counters register lazily on first increment:

  python3 tools/bench_compare.py \
      --assert-zero routed.shed,routed.deadline_exceeded \
      --metrics-json build-dev/routed_obs_metrics.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

EXIT_DRIFT = 1
EXIT_MISSING_COUNTER = 3

# Same shape as the validate_trace workload but a different seed and two
# threads: large enough that every gated counter is exercised (Yen pruning
# included), small enough to stay a few seconds on a laptop.  All gated
# counters are thread-count invariant; MTS_THREADS=2 just keeps the run
# representative of parallel table cells.
BENCH_ENV = {
    "MTS_METRICS": "1",
    "MTS_TIMING": "0",
    "MTS_THREADS": "2",
    "MTS_SCALE": "0.3",
    "MTS_TRIALS": "4",
    "MTS_PATH_RANK": "40",
    "MTS_SEED": "11",
}

# Deterministic work counters under the +-0% gate.  Keep this list in sync
# with the baseline file; a mismatch exits with EXIT_MISSING_COUNTER and
# names every absent counter.
GATED_COUNTERS = [
    "dijkstra.edges_scanned",
    "dijkstra.nodes_settled",
    "ch.nodes_settled",
    "ch.recustomizations",
    "cch.arcs_recomputed",
    "lp.pivots",
    "lp.solves",
    "yen.spurs_pruned",
]

# Reported next to the gate for context, never compared.  ch.queries and
# ch.phast_runs count the daemon's CH work; table02 runs no CH query, so
# they never register there.
INFORMATIONAL_COUNTERS = [
    "dijkstra.runs",
    "dijkstra.workspace_reuses",
    "ch.workspace_reuses",
    "ch.queries",
    "ch.phast_runs",
    "ch.sweep_relaxations",
    "ch.table_queries",
    "yen.spur_searches",
    "yen.candidates_pushed",
]


class Reporter:
    """Tees report lines to stdout/stderr and an optional --report file."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def emit(self, message: str, err: bool = False) -> None:
        line = f"bench_compare: {message}"
        self.lines.append(line)
        print(line, file=sys.stderr if err else sys.stdout)

    def write(self, base: Path) -> None:
        base.parent.mkdir(parents=True, exist_ok=True)
        base.with_suffix(".txt").write_text("\n".join(self.lines) + "\n")


REPORT = Reporter()


def fail(message: str, code: int = EXIT_DRIFT, report_base: Path | None = None) -> None:
    REPORT.emit(f"FAIL: {message}", err=True)
    if report_base is not None:
        REPORT.write(report_base)
    sys.exit(code)


def run_bench(bench: Path, report_base: Path | None) -> tuple[dict, float]:
    """Runs the bench in a temp dir; returns (metrics JSON, wall seconds)."""
    with tempfile.TemporaryDirectory(prefix="mts_bench_compare_") as tmp:
        (Path(tmp) / "bench_results").mkdir()
        env = dict(os.environ)
        env.update(BENCH_ENV)
        start = time.monotonic()
        proc = subprocess.run([str(bench)], cwd=tmp, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=900)
        wall = time.monotonic() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail(f"bench exited with status {proc.returncode}", report_base=report_base)
        metrics_path = Path(tmp) / "bench_results" / "table02_metrics.json"
        if not metrics_path.is_file():
            fail("bench did not write table02_metrics.json (MTS_METRICS=1 ignored?)",
                 report_base=report_base)
        raw = metrics_path.read_text()
        try:
            metrics = json.loads(raw)
        except json.JSONDecodeError as err:
            fail(f"table02_metrics.json is not valid JSON: {err}", report_base=report_base)
        if report_base is not None:
            # Keep the raw metrics next to the report so a failing CI job can
            # upload both as artifacts.
            report_base.parent.mkdir(parents=True, exist_ok=True)
            Path(f"{report_base}_metrics.json").write_text(raw)
    return metrics, wall


def gated_values(counters: dict, report_base: Path | None) -> dict[str, int]:
    missing = [name for name in GATED_COUNTERS if name not in counters]
    if missing:
        fail(f"bench metrics missing gated counter(s): {', '.join(missing)} "
             f"(have: {', '.join(sorted(counters))})",
             code=EXIT_MISSING_COUNTER, report_base=report_base)
    return {name: counters[name] for name in GATED_COUNTERS}


def assert_zero(names: list[str], metrics_json: Path) -> int:
    """Standalone gate: every named counter must be 0 (or absent) in the file."""
    if not metrics_json.is_file():
        fail(f"metrics JSON not found: {metrics_json}")
    try:
        metrics = json.loads(metrics_json.read_text())
    except json.JSONDecodeError as err:
        fail(f"{metrics_json} is not valid JSON: {err}")
    counters = metrics.get("counters")
    if not isinstance(counters, dict):
        counters = {}
    nonzero = []
    for name in names:
        value = counters.get(name, 0)
        if value != 0:
            nonzero.append(f"{name} = {value}")
        else:
            REPORT.emit(f"ok    {name} = 0")
    if nonzero:
        fail(f"counters expected to be zero are not: {'; '.join(nonzero)} "
             f"({metrics_json})")
    REPORT.emit(f"zero-gate passed for {len(names)} counter(s)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", type=Path, default=None,
                        help="path to the table02 bench binary")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="checked-in baseline JSON (BENCH_PR15.json)")
    parser.add_argument("--assert-zero", type=str, default=None, metavar="NAMES",
                        help="comma-separated counters that must be zero in "
                             "--metrics-json; skips the bench/baseline flow")
    parser.add_argument("--metrics-json", type=Path, default=None,
                        help="already-written metrics JSON for --assert-zero")
    parser.add_argument("--write-baseline", "--update", dest="write_baseline",
                        action="store_true",
                        help="rewrite the baseline from this run instead of comparing")
    parser.add_argument("--report", type=Path, default=None, metavar="BASE",
                        help="also write BASE.txt (report lines) and "
                             "BASE_metrics.json (raw metrics) for CI artifacts")
    args = parser.parse_args()

    if args.assert_zero is not None:
        if args.metrics_json is None:
            parser.error("--assert-zero requires --metrics-json")
        names = [name for name in args.assert_zero.split(",") if name]
        if not names:
            parser.error("--assert-zero needs at least one counter name")
        return assert_zero(names, args.metrics_json)
    if args.bench is None or args.baseline is None:
        parser.error("--bench and --baseline are required (unless using --assert-zero)")

    bench = args.bench.resolve()
    if not bench.is_file():
        fail(f"bench binary not found: {bench}", report_base=args.report)

    metrics, wall = run_bench(bench, args.report)
    counters = metrics.get("counters")
    if not isinstance(counters, dict):
        fail("metrics JSON has no 'counters' object", report_base=args.report)
    current = gated_values(counters, args.report)

    REPORT.emit(f"bench wall-clock {wall:.2f}s (reported, not gated)")
    for name in INFORMATIONAL_COUNTERS:
        if name in counters:
            REPORT.emit(f"info  {name} = {counters[name]}")

    if args.write_baseline:
        baseline = {
            "_comment": "Deterministic work-counter baseline for tools/bench_compare.py.  "
                        "Regenerate with --write-baseline after an intentional "
                        "algorithmic change.",
            "bench": "table02_boston_length",
            "env": BENCH_ENV,
            "counters": current,
        }
        args.baseline.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        REPORT.emit(f"baseline updated: {args.baseline}")
        if args.report is not None:
            REPORT.write(args.report)
        return 0

    if not args.baseline.is_file():
        fail(f"baseline not found: {args.baseline} (generate with --write-baseline)",
             report_base=args.report)
    baseline = json.loads(args.baseline.read_text())
    if baseline.get("env") != BENCH_ENV:
        fail("baseline env block does not match BENCH_ENV in this script; "
             "regenerate the baseline with --write-baseline", report_base=args.report)
    expected = baseline.get("counters", {})

    missing = [name for name in GATED_COUNTERS if name not in expected]
    if missing:
        fail(f"baseline missing gated counter(s): {', '.join(missing)}; "
             f"regenerate with --write-baseline",
             code=EXIT_MISSING_COUNTER, report_base=args.report)

    regressions = []
    for name in GATED_COUNTERS:
        if current[name] != expected[name]:
            delta = current[name] - expected[name]
            regressions.append(f"{name}: expected {expected[name]}, got {current[name]} "
                               f"({'+' if delta >= 0 else ''}{delta})")
        else:
            REPORT.emit(f"ok    {name} = {current[name]}")

    if regressions:
        for line in regressions:
            REPORT.emit(f"DRIFT {line}", err=True)
        fail("work counters drifted from the baseline (intended? rerun with "
             "--write-baseline)", report_base=args.report)

    REPORT.emit("ok")
    if args.report is not None:
        REPORT.write(args.report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
