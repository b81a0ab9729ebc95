// The routed wire protocol: line-delimited text requests and responses.
//
// One request per line, space-separated tokens, every request carrying a
// client-chosen id echoed in its response so pipelined requests may be
// answered out of order:
//
//   ping   <id>
//   graph  <id>
//   stats  <id>
//   route  <id> <src> <dst> [time|length]
//   kalt   <id> <src> <dst> <k> [time|length]
//   table  <id> <src,src,...> <dst,dst,...> [time|length]
//   attack <id> <src> <dst> <rank> <algorithm> [time|length]
//
// Every verb accepts one optional final `deadline=<ms>` token (after the
// weight, when both appear): the client's per-request deadline in
// milliseconds, overriding the server's MTS_DEADLINE_MS default.  A request
// that cannot finish in time answers `err <id> deadline-exceeded: ...`.
//
// Responses:
//
//   ok  <id> pong
//   ok  <id> graph nodes=N edges=M pois=P
//   ok  <id> stats <key=value ...>   (sorted keys; see DESIGN.md §13)
//   ok  <id> route found=F dist=D hops=H
//   ok  <id> kalt paths=N best=B worst=W
//   ok  <id> table rows=R cols=C vals=<v,v,...>   (row-major, %.9g each)
//   ok  <id> attack status=S removed=N cost=C
//   err <id> <category>: <message>
//
// Parsing is strict in the CLI-validation style: every numeric token must
// be fully consumed, ids/nodes fit their integer types, unknown verbs and
// trailing junk are rejected with the exact offending token, and the error
// category on the wire is the quarantine taxonomy of PR 5
// (core/error.hpp), so a client can tell a budget exhaustion from a fault
// injection from malformed input.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "attack/algorithms.hpp"
#include "attack/models.hpp"

namespace mts::net {

enum class Verb : std::uint8_t { Ping, Graph, Stats, Route, Kalt, Table, Attack };

const char* to_string(Verb verb);

/// Protocol caps: a request beyond these is rejected at parse time, before
/// any search runs (they bound per-request work independently of budgets).
inline constexpr std::uint32_t kMaxAlternatives = 64;
inline constexpr std::uint32_t kMaxPathRank = 512;
/// Side cap for `table`: at most 8x8 distances per request, so the largest
/// table costs about as much as a handful of route queries.
inline constexpr std::uint32_t kMaxTableDim = 8;
/// Cap on the per-request `deadline=` token (one hour): a deadline this far
/// out is indistinguishable from no deadline, and the cap keeps the value
/// safely additive to any clock reading.
inline constexpr std::uint32_t kMaxDeadlineMs = 3'600'000;

/// One parsed request line.
struct Request {
  Verb verb = Verb::Ping;
  std::uint64_t id = 0;
  std::uint32_t source = 0;  // route/kalt/attack
  std::uint32_t target = 0;  // route/kalt/attack
  std::uint32_t k = 0;       // kalt: number of alternatives, in [1, kMaxAlternatives]
  std::uint32_t rank = 0;    // attack: forced path rank, in [1, kMaxPathRank]
  attack::Algorithm algorithm = attack::Algorithm::GreedyPathCover;  // attack
  attack::WeightType weight = attack::WeightType::Time;
  std::uint32_t deadline_ms = 0;  // optional `deadline=` token; 0 = none
  std::vector<std::uint32_t> sources;  // table: 1..kMaxTableDim row nodes
  std::vector<std::uint32_t> targets;  // table: 1..kMaxTableDim column nodes

  friend bool operator==(const Request& a, const Request& b) {
    return a.verb == b.verb && a.id == b.id && a.source == b.source && a.target == b.target &&
           a.k == b.k && a.rank == b.rank && a.algorithm == b.algorithm && a.weight == b.weight &&
           a.deadline_ms == b.deadline_ms && a.sources == b.sources && a.targets == b.targets;
  }
};

/// One response line.  Payload fields are ordered key=value pairs so
/// serialization is deterministic and clients can read values generically.
struct Response {
  std::uint64_t id = 0;
  bool ok = false;
  std::string verb;   // ok responses: "pong", "graph", "route", "kalt", "attack"
  std::string error;  // err responses: "<category>: <message>"
  std::vector<std::pair<std::string, std::string>> fields;

  /// Value of `key` in fields, or "" when absent.
  [[nodiscard]] std::string field(std::string_view key) const;
};

/// Strict wire integer: a non-empty run of decimal digits no larger than
/// `max_value`.  Throws InvalidInput naming `what` and the token.
std::uint64_t parse_wire_u64(std::string_view token, const char* what, std::uint64_t max_value);

/// Parses one request line.  Throws InvalidInput naming the offending
/// token on any violation; never accepts a line it cannot round-trip.
Request parse_request(std::string_view line);

/// Canonical wire form of `request` (no terminator; the transport appends
/// '\n').  parse_request(serialize_request(r)) == r for every valid r.
std::string serialize_request(const Request& request);

/// Parses one response line (the loadgen side).  Throws InvalidInput on
/// malformed input.
Response parse_response(std::string_view line);

/// Wire form of `response` (no terminator).
std::string serialize_response(const Response& response);

/// Formats a double for the wire exactly like the JSON reports ("%.9g"),
/// so responses are byte-deterministic across platforms that agree on
/// printf semantics.
std::string format_wire_double(double value);

}  // namespace mts::net
