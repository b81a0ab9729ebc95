#include "net/protocol.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/error.hpp"

namespace mts::net {
namespace {

TEST(Protocol, ParsesEveryVerb) {
  Request ping = parse_request("ping 1");
  EXPECT_EQ(ping.verb, Verb::Ping);
  EXPECT_EQ(ping.id, 1u);

  Request graph = parse_request("graph 2");
  EXPECT_EQ(graph.verb, Verb::Graph);

  Request stats = parse_request("stats 6");
  EXPECT_EQ(stats.verb, Verb::Stats);
  EXPECT_EQ(stats.id, 6u);

  Request route = parse_request("route 3 10 20");
  EXPECT_EQ(route.verb, Verb::Route);
  EXPECT_EQ(route.source, 10u);
  EXPECT_EQ(route.target, 20u);
  EXPECT_EQ(route.weight, attack::WeightType::Time);

  Request kalt = parse_request("kalt 4 10 20 8 length");
  EXPECT_EQ(kalt.verb, Verb::Kalt);
  EXPECT_EQ(kalt.k, 8u);
  EXPECT_EQ(kalt.weight, attack::WeightType::Length);

  Request atk = parse_request("attack 5 10 20 16 greedy-pathcover");
  EXPECT_EQ(atk.verb, Verb::Attack);
  EXPECT_EQ(atk.rank, 16u);
  EXPECT_EQ(atk.algorithm, attack::Algorithm::GreedyPathCover);
}

TEST(Protocol, RequestRoundTripsForEveryVerbAndVariant) {
  std::vector<Request> cases;
  {
    Request r;
    r.verb = Verb::Ping;
    r.id = 1;
    cases.push_back(r);
  }
  {
    Request r;
    r.verb = Verb::Graph;
    r.id = 99;
    cases.push_back(r);
  }
  {
    Request r;
    r.verb = Verb::Stats;
    r.id = 31337;
    cases.push_back(r);
  }
  {
    Request r;
    r.verb = Verb::Route;
    r.id = 7;
    r.source = 12;
    r.target = 34;
    r.weight = attack::WeightType::Length;
    cases.push_back(r);
  }
  {
    Request r;
    r.verb = Verb::Kalt;
    r.id = 1234567890123ULL;
    r.source = 0;
    r.target = 4294967295u;
    r.k = kMaxAlternatives;
    cases.push_back(r);
  }
  {
    Request r;
    r.verb = Verb::Table;
    r.id = 12;
    r.sources = {0, 7, 4294967295u};
    r.targets = {5};
    r.weight = attack::WeightType::Length;
    cases.push_back(r);
  }
  for (const auto algorithm :
       {attack::Algorithm::LpPathCover, attack::Algorithm::GreedyPathCover,
        attack::Algorithm::GreedyEdge, attack::Algorithm::GreedyEig}) {
    Request r;
    r.verb = Verb::Attack;
    r.id = 8;
    r.source = 3;
    r.target = 9;
    r.rank = kMaxPathRank;
    r.algorithm = algorithm;
    r.weight = attack::WeightType::Length;
    cases.push_back(r);
  }
  for (const Request& request : cases) {
    const std::string wire = serialize_request(request);
    EXPECT_EQ(parse_request(wire), request) << wire;
    // The optional deadline token composes with every variant.
    Request with_deadline = request;
    with_deadline.deadline_ms = 2500;
    const std::string deadline_wire = serialize_request(with_deadline);
    EXPECT_EQ(parse_request(deadline_wire), with_deadline) << deadline_wire;
  }
}

TEST(Protocol, DeadlineTokenParsesWithAndWithoutWeight) {
  const Request bare = parse_request("route 7 1 2 deadline=250");
  EXPECT_EQ(bare.deadline_ms, 250u);
  EXPECT_EQ(bare.weight, attack::WeightType::Time);  // weight slot untouched
  const Request both = parse_request("route 7 1 2 length deadline=250");
  EXPECT_EQ(both.deadline_ms, 250u);
  EXPECT_EQ(both.weight, attack::WeightType::Length);
  const Request none = parse_request("route 7 1 2");
  EXPECT_EQ(none.deadline_ms, 0u);
  // The cap is inclusive (one hour).
  EXPECT_EQ(parse_request("ping 1 deadline=3600000").deadline_ms, 3'600'000u);
}

TEST(Protocol, DeadlineTokenRejectsBadValues) {
  const char* hostile[] = {
      "route 1 2 3 deadline=0",          // a zero deadline is meaningless
      "route 1 2 3 deadline=",           // empty value
      "route 1 2 3 deadline=soon",       // non-numeric
      "route 1 2 3 deadline=-5",         // negative
      "route 1 2 3 deadline=3600001",    // beyond the one-hour cap
      "route 1 2 3 deadline=250 time",   // deadline must come last
      "ping 1 deadline=10 deadline=10",  // at most one deadline token
  };
  for (const char* line : hostile) {
    EXPECT_THROW(parse_request(line), InvalidInput) << "accepted: '" << line << "'";
  }
}

TEST(Protocol, RejectsMalformedRequests) {
  const char* hostile[] = {
      "",                                    // empty line
      " ",                                   // blank token
      "ping",                                // missing id
      "ping x",                              // non-numeric id
      "ping -1",                             // negative id
      "ping 1 2",                            // trailing junk
      "ping 99999999999999999999",           // id overflows uint64
      "route 1 2",                           // missing dst
      "route 1 2 3 4",                       // junk after optional weight slot
      "route 1 2 3 speed",                   // unknown weight
      "route 1 4294967296 3",                // src overflows uint32
      "route  1 2 3",                        // double space -> empty token
      "kalt 1 2 3 0",                        // k must be >= 1
      "kalt 1 2 3 65",                       // k beyond kMaxAlternatives
      "kalt 1 2 3",                          // missing k
      "attack 1 2 3 0 greedy-pathcover",     // rank must be >= 1
      "attack 1 2 3 513 greedy-pathcover",   // rank beyond kMaxPathRank
      "attack 1 2 3 4 dijkstra",             // unknown algorithm
      "attack 1 2 3 4",                      // missing algorithm
      "stats",                               // missing id
      "stats 1 2",                           // trailing junk
      "teleport 1 2 3",                      // unknown verb
      "route 1 2 3 time length",             // junk after weight
      "ROUTE 1 2 3",                         // verbs are case-sensitive
  };
  for (const char* line : hostile) {
    EXPECT_THROW(parse_request(line), InvalidInput) << "accepted: '" << line << "'";
  }
}

TEST(Protocol, RejectionNamesTheOffendingToken) {
  try {
    parse_request("attack 1 2 3 4 dijkstra");
    FAIL() << "expected InvalidInput";
  } catch (const InvalidInput& e) {
    EXPECT_NE(std::string(e.what()).find("dijkstra"), std::string::npos) << e.what();
  }
  try {
    parse_request("teleport 1");
    FAIL() << "expected InvalidInput";
  } catch (const InvalidInput& e) {
    EXPECT_NE(std::string(e.what()).find("teleport"), std::string::npos) << e.what();
  }
}

TEST(Protocol, OkResponseRoundTrips) {
  Response response;
  response.id = 42;
  response.ok = true;
  response.verb = "route";
  response.fields = {{"found", "1"}, {"dist", "12.5"}, {"hops", "3"}};
  const std::string wire = serialize_response(response);
  EXPECT_EQ(wire, "ok 42 route found=1 dist=12.5 hops=3");
  const Response parsed = parse_response(wire);
  EXPECT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.id, 42u);
  EXPECT_EQ(parsed.verb, "route");
  EXPECT_EQ(parsed.field("dist"), "12.5");
  EXPECT_EQ(parsed.field("missing"), "");
}

TEST(Protocol, ErrResponseCarriesTaxonomyMessage) {
  Response response;
  response.id = 7;
  response.ok = false;
  response.error = "invalid-input: node 999 out of range";
  const std::string wire = serialize_response(response);
  EXPECT_EQ(wire, "err 7 invalid-input: node 999 out of range");
  const Response parsed = parse_response(wire);
  EXPECT_FALSE(parsed.ok);
  EXPECT_EQ(parsed.id, 7u);
  EXPECT_EQ(parsed.error, "invalid-input: node 999 out of range");
}

TEST(Protocol, ErrSerializationFlattensNewlines) {
  Response response;
  response.id = 1;
  response.ok = false;
  response.error = "error: first\nsecond\rthird";
  const std::string wire = serialize_response(response);
  EXPECT_EQ(wire.find('\n'), std::string::npos);
  EXPECT_EQ(wire.find('\r'), std::string::npos);
}

TEST(Protocol, RejectsMalformedResponses) {
  const char* hostile[] = {
      "",
      "ok",
      "yes 1 pong",       // unknown status token
      "ok x pong",        // non-numeric id
      "ok 1",             // missing verb
      "ok 1 route =5",    // empty field key
      "ok 1 route dist",  // field without '='
      "err 1",            // err without message
  };
  for (const char* line : hostile) {
    EXPECT_THROW(parse_response(line), InvalidInput) << "accepted: '" << line << "'";
  }
}

TEST(Protocol, FormatWireDoubleMatchesJsonReports) {
  EXPECT_EQ(format_wire_double(0.0), "0");
  EXPECT_EQ(format_wire_double(12.5), "12.5");
  EXPECT_EQ(format_wire_double(1.0 / 3.0), "0.333333333");
}

}  // namespace
}  // namespace mts::net
