#!/usr/bin/env bash
# Pre-merge gate: build + test the matrix {RelWithDebInfo, ASan+UBSan, TSan}.
#
# Each configuration:
#   1. configures via its CMake preset (build-<preset>/ tree),
#   2. builds everything plus the lint_headers self-containment target,
#   3. runs the full ctest suite, which includes the `lint` entry
#      (tools/lint.py), the `validate_trace` observability gate
#      (tools/validate_trace.py), and, under asan, the
#      sanitizer-instrumented tests; the dev leg then reruns it three
#      times in shuffled order, fully parallel, to catch tests that share
#      state.
#
# The tsan preset is narrower: it builds only the test binaries that host
# the parallel experiment harness and runs the thread-pool, parallel
# determinism, and metrics-registry concurrency suites under
# ThreadSanitizer (the data-race gate for core/thread_pool,
# exp/table_runner, and obs/metrics).
#
# The extra `tidy` leg (not in the default set; hosted CI runs it as its
# own matrix job) configures the dev preset for compile_commands.json and
# runs the baseline-gated clang-tidy sweep (tools/run_clang_tidy.py, see
# DESIGN.md §11).  Without a clang-tidy on PATH it reports skipped unless
# MTS_TIDY_STRICT=1 (CI sets it so a missing tool can never silently pass).
#
# The extra `coverage` leg (also its own hosted CI job) builds
# build-coverage/ with `--coverage -O1`, runs tier-1 without `tidy`, and
# then fails if gcov reports any src/ function that no test ran
# (tools/unrun_functions.py; there is no allowlist: code no test runs is
# deleted or gets a test).
#
# Usage: ./ci.sh [preset ...]     (default: dev asan tsan)
set -euo pipefail
cd "$(dirname "$0")"

PRESETS=("$@")
if [ ${#PRESETS[@]} -eq 0 ]; then
  PRESETS=(dev asan tsan)
fi

JOBS="${JOBS:-$(nproc)}"

# Wait (up to 10s) for a freshly forked `mts routed` to write its port
# file.  `kill -0` is NOT a liveness probe here: a daemon that exits
# instantly becomes a zombie until reaped, and kill -0 succeeds on
# zombies, so the old loop burned the full 10s and then blamed the port
# file.  Read the process state from /proc instead — gone or Z means the
# daemon exited (any status, including 0) without publishing a port, so
# fail fast with its real exit code and stderr.
wait_port_file() {
  local daemon="$1" port_file="$2" err_file="$3"
  local state rc
  for _ in $(seq 1 100); do
    [ -s "$port_file" ] && return 0
    state="$(sed 's/.*) //' "/proc/$daemon/stat" 2>/dev/null | cut -d' ' -f1)"
    if [ -z "$state" ] || [ "$state" = Z ]; then
      rc=0
      wait "$daemon" || rc=$?
      echo "ci: routed exited with status $rc before writing its port file; stderr:" >&2
      cat "$err_file" >&2
      return 1
    fi
    sleep 0.1
  done
  echo "ci: routed never wrote its port file (still running after 10s); stderr:" >&2
  cat "$err_file" >&2
  kill "$daemon" 2>/dev/null
  return 1
}

# Service smoke shared by the dev and asan legs: start `mts routed` on an
# ephemeral port, replay load against it, then prove the SIGTERM drain —
# the daemon must answer everything it parsed and exit 0.  Extra env (e.g.
# MTS_FAULTS=routed.request:...) applies to the daemon only.  The daemon
# serves route/kalt/table off the snapshot's contraction hierarchies, so
# the asan leg's armed run exercises the CH query path under sanitizers.
# (CH answers are checked against the reference Dijkstra/Yen engines by
# the ChServing suite.)
routed_smoke() {
  local preset="$1"; shift
  local mts="build-$preset/src/cli/mts"
  local dir
  dir="$(mktemp -d)"
  "$mts" generate --city chicago --scale 0.15 --seed 5 --out "$dir/city.osm"
  env "$@" "$mts" routed --osm "$dir/city.osm" --port 0 --port-file "$dir/port" \
    --slowlog "$dir/slow.jsonl" --threads 4 --obs "$dir/obs" 2> "$dir/routed.err" &
  local daemon=$!
  wait_port_file "$daemon" "$dir/port" "$dir/routed.err" || return 1

  for mix in route kalt table attack; do
    "$mts" loadgen --port-file "$dir/port" --requests 500 --connections "$JOBS" \
      --mix "$mix" --rank 2 --require-zero-drops 1 ||
      { echo "ci: loadgen mix=$mix failed" >&2; kill "$daemon" 2>/dev/null; return 1; }
  done

  # Live introspection: the stats verb must answer while the daemon is
  # still serving, and its always-on views must cover the replayed load.
  "$mts" stats --port-file "$dir/port" > "$dir/stats.out" ||
    { echo "ci: stats query against live daemon failed" >&2
      kill "$daemon" 2>/dev/null; return 1; }
  if ! grep -q '^server\.requests=' "$dir/stats.out" ||
     ! grep -q '^window\.count=' "$dir/stats.out"; then
    echo "ci: stats output is missing server./window. keys:" >&2
    cat "$dir/stats.out" >&2
    kill "$daemon" 2>/dev/null
    return 1
  fi

  kill -TERM "$daemon"
  local rc=0
  wait "$daemon" || rc=$?
  if [ "$rc" != 0 ]; then
    echo "ci: routed did not drain cleanly on SIGTERM (exit $rc)" >&2
    return 1
  fi

  # A caller that armed a fault point (and the slow-query log, where
  # errors always land) expects the injected failures in the log, tagged
  # with the fault taxonomy.
  local arg slowlog_armed="" faults_armed=""
  for arg in "$@"; do
    case "$arg" in
      MTS_SLOWLOG=*) slowlog_armed=1 ;;
      MTS_FAULTS=*) faults_armed=1 ;;
    esac
  done
  if [ -n "$faults_armed" ] && ! grep -q 'fault-injected' "$dir/slow.jsonl"; then
    echo "ci: armed slow-query log has no fault-injected record" >&2
    return 1
  fi

  # Without faults, an armed slow-query log checks the work meter on live
  # traffic: every line carries the request budget's eight work counts,
  # routes run no Dijkstra, the rankings run spur searches, and tables
  # settle CH nodes.  The dev leg sets a threshold every request crosses.
  if [ -n "$slowlog_armed" ] && [ -z "$faults_armed" ]; then
    python3 - "$dir/slow.jsonl" <<'PY' || { echo "ci: slow-query log work check failed" >&2; return 1; }
import json, sys
keys = ("dijkstra_runs", "nodes_settled", "edges_scanned", "spur_searches",
        "spurs_pruned", "oracle_calls", "ch_queries", "ch_nodes_settled")
lines = [json.loads(line) for line in open(sys.argv[1])]
assert lines, "empty slow-query log"
for line in lines:
    missing = [k for k in keys if k not in line]
    assert not missing, f"line {line['id']} lacks {missing}"
by_verb = lambda verbs: [l for l in lines if l["verb"] in verbs]
assert by_verb({"route"}), "no route lines"
assert all(l["dijkstra_runs"] == 0 for l in by_verb({"route"})), "a route ran Dijkstra"
assert sum(l["spur_searches"] for l in by_verb({"kalt", "attack"})) > 0, "no spur searches"
assert sum(l["ch_nodes_settled"] for l in by_verb({"table"})) > 0, "tables settled nothing"
print(f"ci: slow-query log work check ok ({len(lines)} lines)")
PY
  fi

  # With no overload knob set, the overload machinery must be provably
  # inert: the drained daemon's metrics may not contain a single shed,
  # deadline kill, or slow-client eviction (absent counter == 0).
  python3 tools/bench_compare.py --assert-zero \
    routed.shed,routed.deadline_exceeded,routed.slow_client_disconnects \
    --metrics-json "$dir/obs_metrics.json" ||
    { echo "ci: unloaded smoke tripped overload counters" >&2; return 1; }
  rm -rf "$dir"
}

# Chaos leg: the daemon serves with every overload knob armed and fault
# points firing mid-load (one injected request failure, one stalled
# response write); the retrying client must still reach a terminal answer
# for every request with zero drops, and the SIGTERM drain must stay
# clean.  `timeout` bounds each client run so a wedged daemon fails the
# leg instead of hanging CI.
routed_chaos() {
  local preset="$1"
  local mts="build-$preset/src/cli/mts"
  local dir
  dir="$(mktemp -d)"
  "$mts" generate --city chicago --scale 0.15 --seed 5 --out "$dir/city.osm"
  env MTS_MAX_QUEUE=4 MTS_MAX_INFLIGHT=8 MTS_DEADLINE_MS=2000 \
    MTS_WRITE_TIMEOUT_MS=500 \
    MTS_FAULTS="routed.request:after=40:throw,net.write:after=60:stall" \
    "$mts" routed --osm "$dir/city.osm" --port 0 --port-file "$dir/port" \
    --threads 2 > "$dir/routed.out" 2> "$dir/routed.err" &
  local daemon=$!
  wait_port_file "$daemon" "$dir/port" "$dir/routed.err" || return 1

  # Window 16 against an inflight cap of 8 guarantees sheds; --retries
  # must absorb them (or surface structured errors), never drop.
  for mix in route attack; do
    timeout 120 "$mts" loadgen --port-file "$dir/port" --requests 400 \
      --connections 4 --window 16 --mix "$mix" --rank 2 \
      --retries 8 --reconnects 4 --require-zero-drops 1 ||
      { echo "ci: chaos loadgen mix=$mix failed or hung" >&2
        kill "$daemon" 2>/dev/null; return 1; }
  done

  kill -TERM "$daemon"
  local rc=0
  wait "$daemon" || rc=$?
  if [ "$rc" != 0 ]; then
    echo "ci: chaos daemon did not drain cleanly on SIGTERM (exit $rc)" >&2
    cat "$dir/routed.err" >&2
    return 1
  fi
  # The armed knobs must actually have fired: a chaos run that never shed
  # is not testing overload.
  if ! grep -Eq 'shed=[1-9]' "$dir/routed.out"; then
    echo "ci: chaos run never shed a request; daemon summary:" >&2
    cat "$dir/routed.out" >&2
    return 1
  fi
  sed -n 's/^routed:/ci: chaos daemon summary:/p' "$dir/routed.out"
  rm -rf "$dir"
}

for preset in "${PRESETS[@]}"; do
  if [ "$preset" = bench ]; then
    # Standalone counter-regression leg (hosted CI runs it as its own
    # matrix job): dev-preset build of the table02 bench, then the
    # bench_gate ctest entry, which replays the seed-pinned workload and
    # compares every gated work counter against BENCH_PR19.json.  The
    # comparison report + raw metrics land in build-dev/bench_report* for
    # artifact upload on failure.
    echo "==== [bench] configure (dev preset) ===="
    cmake --preset dev

    echo "==== [bench] build ===="
    cmake --build --preset dev -j "$JOBS" --target table02_boston_length

    echo "==== [bench] bench_gate (counters vs BENCH_PR19.json) ===="
    ctest --preset dev -R '^bench_gate$' --output-on-failure
    continue
  fi

  if [ "$preset" = coverage ]; then
    echo "==== [coverage] configure ===="
    cmake --preset coverage

    echo "==== [coverage] build ===="
    cmake --build --preset coverage -j "$JOBS"

    # Counters from an earlier run would count as this run's.
    find build-coverage -name '*.gcda' -delete

    echo "==== [coverage] ctest (tier-1 without tidy) ===="
    ctest --preset coverage -j "$JOBS" -E '^tidy$'

    echo "==== [coverage] every src/ function ran ===="
    python3 tools/unrun_functions.py --build build-coverage --root .
    continue
  fi

  if [ "$preset" = tidy ]; then
    echo "==== [tidy] configure (dev preset, for compile_commands.json) ===="
    cmake --preset dev

    echo "==== [tidy] clang-tidy gate (baseline: tools/clang_tidy_baseline.txt) ===="
    rc=0
    python3 tools/run_clang_tidy.py --build build-dev \
      --report build-dev/tidy_report.txt || rc=$?
    if [ "$rc" = 77 ]; then
      if [ "${MTS_TIDY_STRICT:-0}" = 1 ]; then
        echo "ci: tidy leg skipped but MTS_TIDY_STRICT=1 — failing" >&2
        exit 1
      fi
      echo "ci: tidy skipped (no clang-tidy on this machine)"
    elif [ "$rc" != 0 ]; then
      exit "$rc"
    fi
    continue
  fi

  echo "==== [$preset] configure ===="
  cmake --preset "$preset"

  if [ "$preset" = tsan ]; then
    echo "==== [$preset] build (parallel suites) ===="
    cmake --build --preset "$preset" -j "$JOBS" --target test_core test_integration test_obs test_net

    echo "==== [$preset] ctest (ThreadPool + ParallelDeterminism + MetricsRegistry + SearchSpace + Fault/Checkpoint + TaskQueue/RoutedE2e) ===="
    # MTS_THREADS=4 forces real concurrency even on small CI hosts, so TSan
    # actually sees the threads it is supposed to check.  ConcurrentRecording
    # is the obs/metrics sharded-registry race gate; SearchSpaceThreads races
    # the per-thread search workspace reuse path (graph/search_space.hpp);
    # Fault/Checkpoint race the quarantine + journal-append paths of the
    # parallel harness (exp/table_runner, exp/checkpoint); TaskQueue/RoutedE2e
    # race the daemon's reader threads, queue workers, and drain paths
    # (core/thread_pool, net/server) — this leg is what caught the EOF-close
    # vs shutdown_read fd race.  ChSharedSnapshot races concurrent
    # QueryEngine workers over one read-only snapshot-owned
    # ContractionHierarchy (net/snapshot, graph/contraction_hierarchy).
    # RoutedOverload races the admission path, per-connection writer
    # threads, and eviction against workers; SocketIo races reader/writer
    # pairs through tiny kernel buffers and EINTR storms.
    MTS_THREADS=4 ctest --preset "$preset" -j "$JOBS" \
      -R 'ThreadPool|ParallelDeterminism|ConcurrentRecording|SearchSpace|Fault|Checkpoint|TaskQueue|RoutedE2e|RoutedOverload|SocketIo|WindowedHistogram|ChSharedSnapshot'
    continue
  fi

  echo "==== [$preset] build ===="
  cmake --build --preset "$preset" -j "$JOBS"

  echo "==== [$preset] lint_headers ===="
  cmake --build --preset "$preset" -j "$JOBS" --target lint_headers

  echo "==== [$preset] ctest ===="
  ctest --preset "$preset" -j "$JOBS"

  if [ "$preset" = asan ]; then
    # Fault-injection smoke: arm every compiled-in fault point in turn and
    # run the small table bench under ASan+UBSan.  The armed fault must be
    # contained (quarantined cell or dropped trial, exit 0) — never a
    # crash, leak, or sanitizer report.
    echo "==== [$preset] fault-injection smoke (MTS_FAULTS matrix) ===="
    for point in lp.pivot yen.spur oracle.solve pool.task; do
      echo "---- MTS_FAULTS=$point:after=25:throw ----"
      (cd "build-$preset" &&
        MTS_FAULTS="$point:after=25:throw" MTS_SCALE=0.2 MTS_TRIALS=2 \
          MTS_PATH_RANK=10 MTS_SEED=11 MTS_TIMING=0 \
          ./bench/table02_boston_length > /dev/null)
    done

    # The routed.request point fires inside a live daemon under ASan: the
    # injected fault must surface as one structured `err ... fault-injected:`
    # response (loadgen still completes with zero drops), land in the
    # slow-query log (errors always log; the 60 s threshold keeps healthy
    # requests out), and the drain must stay clean.
    echo "==== [$preset] routed fault-injection smoke (MTS_FAULTS=routed.request) ===="
    routed_smoke "$preset" MTS_FAULTS=routed.request:after=25:throw MTS_SLOWLOG=60000
  fi

  if [ "$preset" = dev ]; then
    # Hermeticity gate: every gtest case runs as its own process, so tests
    # sharing scratch files (or any other state) fail under a shuffled,
    # fully parallel schedule.  Three shuffled passes make such a flake
    # fail loudly instead of once in a few runs.
    echo "==== [$preset] ctest shuffled x3 (test isolation) ===="
    ctest --preset "$preset" -j "$(nproc)" --schedule-random --repeat until-fail:3

    # Explicit observability gate: a small MTS_TRACE=1 bench run whose
    # Chrome trace must validate against tools/trace_schema.json (the
    # entry also runs inside the full ctest sweep above; calling it out
    # here keeps the failure mode obvious when only this gate breaks).
    echo "==== [$preset] validate_trace (MTS_TRACE=1 bench) ===="
    ctest --preset "$preset" -R '^validate_trace$' --output-on-failure

    # Deterministic work-counter regression gate: a small MTS_METRICS=1
    # bench run whose dijkstra/ch/lp/yen/attack counters must match
    # BENCH_PR19.json exactly (tools/bench_compare.py; wall-clock is
    # reported, never gated).
    echo "==== [$preset] bench_gate (counter regression) ===="
    ctest --preset "$preset" -R '^bench_gate$' --output-on-failure

    # Service smoke: routed + loadgen end to end over the four request
    # mixes, then the SIGTERM drain contract (see routed_smoke above).  A
    # 1 µs slow-query threshold logs every request, so the smoke also
    # checks each request's work counts.
    echo "==== [$preset] routed/loadgen smoke ===="
    routed_smoke "$preset" MTS_SLOWLOG=0.001

    # Overload chaos: armed knobs + mid-load fault injection; the
    # retrying client must terminate with zero drops and the daemon must
    # shed observably and drain cleanly (see routed_chaos above).
    echo "==== [$preset] routed overload chaos ===="
    routed_chaos "$preset"

    # Brief protocol fuzz callout: byte-mutation fuzz of the wire parser
    # (also part of the full sweep; isolated here so a framing regression
    # fails with an obvious label).
    echo "==== [$preset] protocol fuzz ===="
    ctest --preset "$preset" -R 'ProtocolFuzz' --output-on-failure
  fi
done

echo "ci: all presets green (${PRESETS[*]})"
