#!/usr/bin/env python3
"""End-to-end trace validation: run a small instrumented bench and check
the emitted observability files.

Runs the table02 bench binary in a temporary directory with MTS_TRACE=1
at a tiny scale, then asserts:

  1. bench_results/table02_trace.json validates against
     tools/trace_schema.json (Chrome trace_event complete-event format,
     the shape chrome://tracing and Perfetto require);
  2. bench_results/table02_metrics.json carries the pipeline counters the
     instrumentation layer promises (yen/lp/oracle) and — because the run
     forces MTS_THREADS=4 — the pool.queue_wait_s histogram;
  3. trace events nest sanely: every duration is non-negative and at
     least one event exists per worker tid.

Wired into ctest as `validate_trace` (root CMakeLists.txt) and run by
the dev leg of ci.sh.  Usage:

  python3 tools/validate_trace.py --bench build/bench/table02_boston_length
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# Small but non-trivial: enough trials for the attack loop, Yen, the LP,
# and the oracle to all fire, and >1 thread so the pool queue histogram
# has samples.  The workload must stay large enough that pool workers wake
# before the calling thread drains the whole job (the goal-directed spur
# engine made the old rank-8 run finish in under a worker wakeup), or the
# queue-wait check below turns flaky.  Seed-pinned so failures reproduce.
BENCH_ENV = {
    "MTS_TRACE": "1",
    "MTS_METRICS": "1",
    "MTS_THREADS": "4",
    "MTS_SCALE": "0.3",
    "MTS_TRIALS": "4",
    "MTS_PATH_RANK": "40",
    "MTS_SEED": "7",
}

REQUIRED_COUNTERS = [
    "yen.candidates_pushed",
    "yen.queries",
    "lp.pivots",
    "lp.solves",
    "oracle.calls",
    "dijkstra.runs",
    "attack.rounds",
    "exp.cells_run",
    "pool.tasks_executed",
]


# Args of every request span: the id plus the request budget's eight work
# counters (DESIGN.md §13).
SPAN_ARGS = ("id", "dijkstra_runs", "nodes_settled", "edges_scanned", "spur_searches",
             "spurs_pruned", "oracle_calls", "ch_queries", "ch_nodes_settled")


def fail(message: str) -> None:
    print(f"validate_trace: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def validate_schema(value, schema, path: str = "$") -> None:
    """Validates `value` against the JSON-schema subset used by
    tools/trace_schema.json: type, required, properties, items, enum,
    minimum.  Fails with the JSON path of the first violation."""
    if "enum" in schema:
        if value not in schema["enum"]:
            fail(f"{path}: {value!r} not in enum {schema['enum']}")
        return
    expected = schema.get("type")
    if expected == "object":
        if not isinstance(value, dict):
            fail(f"{path}: expected object, got {type(value).__name__}")
        for key in schema.get("required", []):
            if key not in value:
                fail(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                validate_schema(value[key], sub, f"{path}.{key}")
    elif expected == "array":
        if not isinstance(value, list):
            fail(f"{path}: expected array, got {type(value).__name__}")
        if "items" in schema:
            for i, item in enumerate(value):
                validate_schema(item, schema["items"], f"{path}[{i}]")
    elif expected == "string":
        if not isinstance(value, str):
            fail(f"{path}: expected string, got {type(value).__name__}")
    elif expected == "integer":
        if not isinstance(value, int) or isinstance(value, bool):
            fail(f"{path}: expected integer, got {type(value).__name__}")
    elif expected == "number":
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            fail(f"{path}: expected number, got {type(value).__name__}")
    if "minimum" in schema and isinstance(value, (int, float)):
        if value < schema["minimum"]:
            fail(f"{path}: {value} below minimum {schema['minimum']}")


def check_trace(trace_path: Path, schema: dict) -> None:
    try:
        trace = json.loads(trace_path.read_text())
    except json.JSONDecodeError as err:
        fail(f"{trace_path.name} is not valid JSON: {err}")
    validate_schema(trace, schema)
    events = trace["traceEvents"]
    if not events:
        fail("trace has zero events despite MTS_TRACE=1")
    tids = {event["tid"] for event in events}
    names = {event["name"] for event in events}
    # Request spans (cat "mts.request", emitted by `mts routed`) carry the
    # request id and the budget's eight work counters as args, the same
    # eight its slow-query log line carries; phase events (cat "mts") omit
    # the args object entirely to keep pre-span traces byte-identical.
    spans = [event for event in events if event["cat"] == "mts.request"]
    for i, span in enumerate(spans):
        args = span.get("args")
        if not isinstance(args, dict):
            fail(f"request span [{i}] ({span['name']!r}) has no args object")
        for key in SPAN_ARGS:
            if key not in args:
                fail(f"request span [{i}] ({span['name']!r}) missing args.{key}")
    print(f"validate_trace: {len(events)} events ({len(spans)} request spans), "
          f"{len(tids)} tids, {len(names)} distinct phases ({', '.join(sorted(names))})")
    for expected in ("attack", "oracle", "dijkstra", "yen"):
        if expected not in names:
            fail(f"expected a {expected!r} phase in the trace, got {sorted(names)}")


def check_metrics(metrics_path: Path) -> None:
    try:
        metrics = json.loads(metrics_path.read_text())
    except json.JSONDecodeError as err:
        fail(f"{metrics_path.name} is not valid JSON: {err}")
    for key in ("run", "counters", "histograms", "phases"):
        if key not in metrics:
            fail(f"metrics JSON missing top-level {key!r} block")
    run = metrics["run"]
    if run.get("threads_effective") != 4:
        fail(f"run block reports threads_effective={run.get('threads_effective')}, "
             f"expected 4 (MTS_THREADS=4)")
    counters = metrics["counters"]
    for name in REQUIRED_COUNTERS:
        if counters.get(name, 0) <= 0:
            fail(f"counter {name!r} is missing or zero: {counters.get(name)}")
    hist = metrics["histograms"].get("pool.queue_wait_s")
    if hist is None or hist.get("count", 0) <= 0:
        fail("pool.queue_wait_s histogram has no samples despite MTS_THREADS=4")
    phases = {phase["path"] for phase in metrics["phases"]}
    if "cell/attack/oracle/dijkstra" not in phases:
        fail(f"expected hierarchical phase cell/attack/oracle/dijkstra, got {sorted(phases)}")
    print(f"validate_trace: {len(counters)} counters, "
          f"{len(metrics['histograms'])} histograms, {len(phases)} phases ok")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", type=Path, required=True,
                        help="path to the table02 bench binary")
    parser.add_argument("--schema", type=Path,
                        default=Path(__file__).resolve().parent / "trace_schema.json",
                        help="trace schema (default: tools/trace_schema.json)")
    args = parser.parse_args()

    bench = args.bench.resolve()
    if not bench.is_file():
        fail(f"bench binary not found: {bench}")
    schema = json.loads(args.schema.read_text())

    # The bench writes bench_results/ relative to its cwd; run in a temp
    # dir so repeated invocations and real result trees never collide.
    with tempfile.TemporaryDirectory(prefix="mts_validate_trace_") as tmp:
        (Path(tmp) / "bench_results").mkdir()
        env = dict(os.environ)
        env.update(BENCH_ENV)
        proc = subprocess.run([str(bench)], cwd=tmp, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail(f"bench exited with status {proc.returncode}")
        results = Path(tmp) / "bench_results"
        trace_path = results / "table02_trace.json"
        metrics_path = results / "table02_metrics.json"
        if not trace_path.is_file():
            fail("bench did not write table02_trace.json")
        if not metrics_path.is_file():
            fail("bench did not write table02_metrics.json")
        check_trace(trace_path, schema)
        check_metrics(metrics_path)

    print("validate_trace: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
