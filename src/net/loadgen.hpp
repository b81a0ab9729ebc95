// Deterministic load generator for the routed daemon.
//
// Synthesizes a reproducible request stream (fixed seed => byte-identical
// requests, independent of timing or connection count), replays it over N
// concurrent connections with a bounded in-flight window per connection,
// and reports latency percentiles and throughput.  Latency values pass
// through reported_seconds(), so MTS_TIMING=0 zeroes every duration in the
// report while counts stay exact.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.hpp"

namespace mts::net {

/// Which request types the stream contains.  Mixed is the service smoke:
/// mostly routes, some k-alternative queries, occasional attacks.
enum class Mix : std::uint8_t { Route, Kalt, Attack, Table, Mixed };

/// Parses "route" | "kalt" | "attack" | "table" | "mixed"; throws
/// InvalidInput naming the offending token otherwise.
Mix parse_mix(std::string_view token);

struct LoadgenOptions {
  std::uint64_t requests = 1000;
  std::size_t connections = 4;
  std::size_t window = 16;  // max in-flight requests per connection
  std::uint64_t seed = 7;
  Mix mix = Mix::Route;
  std::uint32_t kalt_k = 4;       // k for kalt requests
  std::uint32_t attack_rank = 8;  // forced path rank for attack requests
  attack::WeightType weight = attack::WeightType::Time;
  /// Overload-aware client behavior (both default off, so a replay with an
  /// unarmed server sends byte-identical wire traffic to the pre-overload
  /// client).  `max_reconnects` lets a connection that dies mid-load dial
  /// back in — capped exponential backoff with deterministic jitter (see
  /// reconnect_backoff_s) — and re-send its unanswered requests.
  /// `retry_limit` re-sends a request up to that many times when the
  /// server answers `overloaded` or `deadline-exceeded` (every other error
  /// taxonomy is terminal).
  std::size_t max_reconnects = 0;
  std::uint32_t retry_limit = 0;
  /// When non-empty, every raw response line is written here sorted by
  /// request id, one per line — an A/B parity artifact: two runs against
  /// the same snapshot and stream (same seed/mix/requests) must produce
  /// byte-identical dumps regardless of server config (RoutedOverload
  /// diffs generous overload knobs against none this way).  Retried
  /// requests record only their terminal response.
  std::string dump_path;
};

struct LoadReport {
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;  // responses received (ok + errors)
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;   // structured `err` responses (terminal only)
  std::uint64_t dropped = 0;  // sent but never answered (connection died)
  std::uint64_t retried = 0;     // re-sends after overloaded/deadline-exceeded
  std::uint64_t reconnects = 0;  // successful mid-load reconnections
  std::uint64_t failed_connections = 0;
  /// True when any connection died or any request was dropped: the latency
  /// percentiles below then summarize only the requests that completed —
  /// a partial window, not the full offered load.
  bool partial = false;
  std::string first_failure;  // taxonomy of the first connection failure
  double wall_s = 0.0;
  double qps = 0.0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  double mean_s = 0.0;
  double max_s = 0.0;
};

/// Backoff before successful-reconnect attempt `attempt` (1-based) on
/// `connection`: capped exponential (10 ms doubling to 640 ms) scaled by
/// deterministic jitter in [0.5, 1.0] drawn from an RNG stream derived
/// from (seed, connection, attempt).  Pure — same inputs, same delay on
/// every machine — so a replay with reconnects is still reproducible.
double reconnect_backoff_s(std::uint64_t seed, std::size_t connection, std::size_t attempt);

/// The deterministic request stream: request i has id i+1, endpoints drawn
/// from mts::Rng seeded by `options.seed` alone.  Identical inputs produce
/// an identical vector on every machine and run.
std::vector<Request> synthesize_requests(const LoadgenOptions& options, std::size_t num_nodes);

/// One-shot client round trip on a dedicated connection: sends `request`
/// and blocks for its response line.  Throws Error when the daemon is
/// unreachable or hangs up before answering.  Used by `mts stats` and the
/// loadgen post-run server snapshot.
Response request_once(const std::string& host, std::uint16_t port, const Request& request);

/// Connects to a running routed daemon, replays the synthesized stream,
/// and blocks until every request is answered or its connection dies.  A
/// connection dying mid-load (e.g. the daemon draining on SIGTERM) is not
/// an exception — it surfaces as dropped > 0 plus first_failure, so the
/// caller decides whether a partial replay is a failure.  Throws Error
/// only when the daemon is unreachable up front.
LoadReport run_loadgen(const std::string& host, std::uint16_t port,
                       const LoadgenOptions& options);

}  // namespace mts::net
