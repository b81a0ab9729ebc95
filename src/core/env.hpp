// Environment-variable knobs shared by every benchmark binary.
//
// Numeric knobs read through core/parse.hpp's grammar: unset or empty means
// the default, and a value that does not read (e.g. "O.2" typed with a
// letter O, "inf", " 7") or is out of the knob's range throws InvalidInput
// naming the variable instead of quietly running the default.
//
// MTS_SCALE     city size multiplier, > 0 (1 = scaled-down default, larger
//               values approach the paper's full-size graphs)
// MTS_TRIALS    experiments per table cell, >= 1 (paper used 40; default 24)
// MTS_SEED      unsigned RNG seed for the whole experiment
// MTS_PATH_RANK rank of the forced alternative path p*, >= 1 (paper: 100)
// MTS_THREADS   worker threads for the experiment harness (0 = hardware
//               concurrency).  Any value produces bit-identical results;
//               see core/thread_pool.hpp.
// MTS_TIMING    1 (default) = report wall-clock runtimes; 0 = report zeros,
//               making every table/JSON byte-identical across runs and
//               thread counts (used by the determinism tests and CI).
//               Bench binaries reject any other value.
// MTS_METRICS   1 = record counters/histograms/phase rollups and write
//               <artifact>_metrics.json next to each bench artifact
//               (default 0: near-zero overhead, no extra files)
// MTS_TRACE     1 = additionally buffer per-phase trace events and write a
//               Chrome trace_event JSON (implies MTS_METRICS=1)
// MTS_CHECKPOINT path of the append-only cell journal; empty (default) =
//               no journaling.  See exp/checkpoint.hpp and --resume.
// MTS_BUDGET    deterministic work caps, e.g. "edges=5000000,pivots=20000"
//               (parsed by WorkBudget::from_environment; empty = unlimited)
// MTS_FAULTS    deterministic fault injection, e.g. "lp.pivot:after=100:throw"
//               (parsed by fault::FaultRegistry; empty = disarmed)
// MTS_SLOWLOG   slow-query threshold in milliseconds for `mts routed`:
//               requests at/over it (or failing) append one JSONL line to
//               the --slowlog file (default routed_slowlog.jsonl); unset
//               or 0 (default) writes nothing
// MTS_MAX_INFLIGHT
//               `mts routed` per-connection cap on parsed-but-unanswered
//               requests; a connection over the cap gets `err <id>
//               overloaded` immediately.  Unset or 0 (default) = unbounded.
// MTS_MAX_QUEUE `mts routed` cap on queued+executing requests across all
//               connections.  At half the cap the daemon sheds expensive
//               verbs (attack, table); at the cap it sheds all search verbs
//               (route, kalt too).  Unset or 0 (default) = unbounded.
// MTS_DEADLINE_MS
//               `mts routed` default per-request deadline in milliseconds,
//               measured from parse (queue wait counts); an expired request
//               answers `err <id> deadline-exceeded`.  A request's own
//               `deadline=` token overrides.  Unset or 0 (default) = none.
// MTS_WRITE_TIMEOUT_MS
//               `mts routed` per-response send timeout; a client that can't
//               drain a response within it is disconnected and counted in
//               routed.slow_client_disconnects.  Unset or 0 (default) =
//               writes block (the per-connection write-queue byte cap still
//               bounds memory).
// MTS_CH        1 (default) = the table harness builds a CH + CCH bundle
//               per table column, and the attack oracle certifies ties on
//               the CCH; 0 = each tie costs a full reverse Dijkstra.
//               Tables are identical either way.  Unset or empty means 1;
//               any value other than 0 or 1 is an error.  The daemon and
//               the verifier ignore it (DESIGN.md §14).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>

namespace mts {

/// The repo's single raw environment read (lint rule no-raw-getenv): every
/// MTS_* knob flows through here, so determinism-sensitive configuration
/// has exactly one entry point.  Returns nullptr when unset.  Header-only
/// on purpose — the obs layer sits below mts_core in the link order and
/// may only use header-only core facilities.
inline const char* env_raw(const char* name) {
  return std::getenv(name);  // mts-lint: allow(no-raw-getenv) the one entry point
}

/// Reads an integer environment variable: `fallback` when unset or empty;
/// throws InvalidInput naming the variable when parse_signed refuses the
/// value ("2O", "4x", "+4", "abc").
std::int64_t env_int(const std::string& name, std::int64_t fallback);

/// Strictly-validated MTS_THREADS read: unset or empty means 0 (= hardware
/// concurrency); anything else must be an unsigned integer up to 10^6.  Negative counts, trailing junk ("4x"), and non-numeric values
/// throw InvalidInput naming the offending value instead of silently
/// falling back — a typo'd thread count must never change results quietly.
std::size_t env_threads();

/// Reads a finite decimal environment variable (parse_finite) with the
/// same contract as env_int; "nan" and "inf" are refused.
double env_double(const std::string& name, double fallback);

/// Reads a string environment variable, falling back when unset or empty.
std::string env_string(const std::string& name, const std::string& fallback);

/// Bundled experiment knobs with their defaults applied.
struct BenchEnv {
  double scale = 1.0;
  int trials = 24;
  std::uint64_t seed = 7;
  int path_rank = 100;
  int threads = 0;  // 0 = hardware concurrency
  std::string checkpoint;  // cell journal path; empty = no journaling

  /// Reads every knob above and validates MTS_TIMING (0 or 1; reported
  /// durations themselves pass through timing_enabled()).
  static BenchEnv from_environment();

  /// Prints a one-line run header to stderr: the binary name, every knob,
  /// and the requested-vs-effective thread resolution.  stderr on purpose —
  /// stdout tables and saved artifacts must stay byte-identical across
  /// thread counts and observability settings.
  void print_run_header(const std::string& binary_name) const;
};

}  // namespace mts
