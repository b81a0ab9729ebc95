#include "net/protocol.hpp"

#include <cstdio>
#include <limits>

#include "core/error.hpp"

namespace mts::net {

namespace {

/// Splits on single spaces.  Empty tokens (leading/trailing/double spaces)
/// are rejected by the numeric/verb parsers below, so a sloppy client gets
/// a precise error instead of a silently re-tokenized line.
std::vector<std::string_view> split_tokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t start = 0;
  while (start <= line.size()) {
    const std::size_t space = line.find(' ', start);
    if (space == std::string_view::npos) {
      tokens.push_back(line.substr(start));
      break;
    }
    tokens.push_back(line.substr(start, space - start));
    start = space + 1;
  }
  return tokens;
}

constexpr std::string_view kDeadlineKey = "deadline=";

/// Consumes the optional trailing weight and `deadline=<ms>` tokens (in
/// that order); anything after them is junk.
void finish_request(Request& request, const std::vector<std::string_view>& tokens,
                    std::size_t next) {
  if (next < tokens.size() && tokens[next].substr(0, kDeadlineKey.size()) != kDeadlineKey) {
    request.weight = attack::parse_weight(tokens[next]);
    ++next;
  }
  if (next < tokens.size() && tokens[next].substr(0, kDeadlineKey.size()) == kDeadlineKey) {
    const std::string_view value = tokens[next].substr(kDeadlineKey.size());
    request.deadline_ms =
        static_cast<std::uint32_t>(parse_wire_u64(value, "deadline", kMaxDeadlineMs));
    if (request.deadline_ms == 0) throw InvalidInput("deadline must be >= 1 ms");
    ++next;
  }
  if (next < tokens.size()) {
    throw InvalidInput("trailing token '" + std::string(tokens[next]) + "' after " +
                       std::string(to_string(request.verb)) + " request");
  }
}

constexpr std::uint64_t kMaxNode = std::numeric_limits<std::uint32_t>::max();

/// Parses a table side: comma-separated node ids, 1..kMaxTableDim entries.
/// Empty entries ("1,,2", trailing comma) are rejected by parse_wire_u64.
std::vector<std::uint32_t> parse_node_list(std::string_view token, const char* what) {
  std::vector<std::uint32_t> nodes;
  std::size_t start = 0;
  while (start <= token.size()) {
    const std::size_t comma = token.find(',', start);
    const std::string_view item =
        comma == std::string_view::npos ? token.substr(start) : token.substr(start, comma - start);
    nodes.push_back(static_cast<std::uint32_t>(parse_wire_u64(item, what, kMaxNode)));
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  if (nodes.size() > kMaxTableDim) {
    throw InvalidInput(std::string(what) + " list has " + std::to_string(nodes.size()) +
                       " nodes (max " + std::to_string(kMaxTableDim) + ")");
  }
  return nodes;
}

std::string join_node_list(const std::vector<std::uint32_t>& nodes) {
  std::string out;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(nodes[i]);
  }
  return out;
}

}  // namespace

std::uint64_t parse_wire_u64(std::string_view token, const char* what, std::uint64_t max_value) {
  if (token.empty()) throw InvalidInput(std::string(what) + ": empty token");
  std::uint64_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') {
      throw InvalidInput(std::string(what) + " expects a non-negative integer, got '" +
                         std::string(token) + "'");
    }
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      throw InvalidInput(std::string(what) + " overflows: '" + std::string(token) + "'");
    }
    value = value * 10 + digit;
  }
  if (value > max_value) {
    throw InvalidInput(std::string(what) + " out of range (max " + std::to_string(max_value) +
                       "): '" + std::string(token) + "'");
  }
  return value;
}

const char* to_string(Verb verb) {
  switch (verb) {
    case Verb::Ping: return "ping";
    case Verb::Graph: return "graph";
    case Verb::Stats: return "stats";
    case Verb::Route: return "route";
    case Verb::Kalt: return "kalt";
    case Verb::Table: return "table";
    case Verb::Attack: return "attack";
  }
  return "?";
}

std::string Response::field(std::string_view key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return v;
  }
  return "";
}

Request parse_request(std::string_view line) {
  const auto tokens = split_tokens(line);
  if (tokens.empty() || tokens[0].empty()) throw InvalidInput("empty request line");
  Request request;
  const std::string_view verb = tokens[0];
  if (tokens.size() < 2) throw InvalidInput("request '" + std::string(verb) + "' missing id");
  request.id = parse_wire_u64(tokens[1], "id", std::numeric_limits<std::uint64_t>::max());

  auto need = [&](std::size_t count, const char* shape) {
    if (tokens.size() < count) {
      throw InvalidInput("request '" + std::string(verb) + "' expects " + shape);
    }
  };
  auto node = [&](std::size_t index, const char* what) {
    return static_cast<std::uint32_t>(parse_wire_u64(tokens[index], what, kMaxNode));
  };

  if (verb == "ping") {
    request.verb = Verb::Ping;
    finish_request(request, tokens, 2);
  } else if (verb == "graph") {
    request.verb = Verb::Graph;
    finish_request(request, tokens, 2);
  } else if (verb == "stats") {
    request.verb = Verb::Stats;
    finish_request(request, tokens, 2);
  } else if (verb == "route") {
    request.verb = Verb::Route;
    need(4, "<id> <src> <dst> [time|length]");
    request.source = node(2, "src");
    request.target = node(3, "dst");
    finish_request(request, tokens, 4);
  } else if (verb == "kalt") {
    request.verb = Verb::Kalt;
    need(5, "<id> <src> <dst> <k> [time|length]");
    request.source = node(2, "src");
    request.target = node(3, "dst");
    request.k = static_cast<std::uint32_t>(parse_wire_u64(tokens[4], "k", kMaxAlternatives));
    if (request.k == 0) throw InvalidInput("k must be >= 1");
    finish_request(request, tokens, 5);
  } else if (verb == "table") {
    request.verb = Verb::Table;
    need(4, "<id> <src,src,...> <dst,dst,...> [time|length]");
    request.sources = parse_node_list(tokens[2], "src");
    request.targets = parse_node_list(tokens[3], "dst");
    finish_request(request, tokens, 4);
  } else if (verb == "attack") {
    request.verb = Verb::Attack;
    need(6, "<id> <src> <dst> <rank> <algorithm> [time|length]");
    request.source = node(2, "src");
    request.target = node(3, "dst");
    request.rank = static_cast<std::uint32_t>(parse_wire_u64(tokens[4], "rank", kMaxPathRank));
    if (request.rank == 0) throw InvalidInput("rank must be >= 1");
    request.algorithm = attack::parse_algorithm(tokens[5]);
    finish_request(request, tokens, 6);
  } else {
    throw InvalidInput("unknown verb '" + std::string(verb) +
                       "' (ping|graph|stats|route|kalt|table|attack)");
  }
  return request;
}

std::string serialize_request(const Request& request) {
  std::string line = to_string(request.verb);
  line += ' ';
  line += std::to_string(request.id);
  switch (request.verb) {
    case Verb::Ping:
    case Verb::Graph:
    case Verb::Stats:
      break;
    case Verb::Route:
      line += ' ' + std::to_string(request.source) + ' ' + std::to_string(request.target);
      break;
    case Verb::Kalt:
      line += ' ' + std::to_string(request.source) + ' ' + std::to_string(request.target) +
              ' ' + std::to_string(request.k);
      break;
    case Verb::Table:
      line += ' ' + join_node_list(request.sources) + ' ' + join_node_list(request.targets);
      break;
    case Verb::Attack:
      line += ' ' + std::to_string(request.source) + ' ' + std::to_string(request.target) +
              ' ' + std::to_string(request.rank);
      line += ' ';
      line += attack::algorithm_token(request.algorithm);
      break;
  }
  if (request.weight != attack::WeightType::Time) {
    line += ' ';
    line += attack::weight_token(request.weight);
  }
  if (request.deadline_ms != 0) {
    line += " deadline=";
    line += std::to_string(request.deadline_ms);
  }
  return line;
}

Response parse_response(std::string_view line) {
  Response response;
  const auto tokens = split_tokens(line);
  if (tokens.size() < 2 || tokens[0].empty()) throw InvalidInput("malformed response line");
  if (tokens[0] != "ok" && tokens[0] != "err") {
    throw InvalidInput("response must start with ok|err, got '" + std::string(tokens[0]) + "'");
  }
  response.ok = tokens[0] == "ok";
  response.id = parse_wire_u64(tokens[1], "id", std::numeric_limits<std::uint64_t>::max());
  if (!response.ok) {
    // Everything after the id is the taxonomy message, spaces included.
    const std::size_t prefix = line.find(' ', line.find(' ') + 1);
    response.error = prefix == std::string_view::npos ? "" : std::string(line.substr(prefix + 1));
    if (response.error.empty()) throw InvalidInput("err response missing message");
    return response;
  }
  if (tokens.size() < 3 || tokens[2].empty()) throw InvalidInput("ok response missing verb");
  response.verb = std::string(tokens[2]);
  for (std::size_t i = 3; i < tokens.size(); ++i) {
    const std::size_t eq = tokens[i].find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw InvalidInput("malformed response field '" + std::string(tokens[i]) + "'");
    }
    response.fields.emplace_back(std::string(tokens[i].substr(0, eq)),
                                 std::string(tokens[i].substr(eq + 1)));
  }
  return response;
}

std::string serialize_response(const Response& response) {
  std::string line = response.ok ? "ok" : "err";
  line += ' ';
  line += std::to_string(response.id);
  if (!response.ok) {
    line += ' ';
    line += response.error.empty() ? std::string("error") : response.error;
    // The transport is line-framed: a newline inside an error message would
    // desynchronize the stream, so flatten any that slipped in.
    for (char& c : line) {
      if (c == '\n' || c == '\r') c = ' ';
    }
    return line;
  }
  line += ' ';
  line += response.verb;
  for (const auto& [key, value] : response.fields) {
    line += ' ';
    line += key;
    line += '=';
    line += value;
  }
  return line;
}

std::string format_wire_double(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  return buf;
}

}  // namespace mts::net
