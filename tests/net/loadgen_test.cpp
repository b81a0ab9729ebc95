#include "net/loadgen.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "core/stats.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"

namespace mts::net {
namespace {

TEST(Loadgen, ParseMixRoundTripsAndRejects) {
  EXPECT_EQ(parse_mix("route"), Mix::Route);
  EXPECT_EQ(parse_mix("kalt"), Mix::Kalt);
  EXPECT_EQ(parse_mix("attack"), Mix::Attack);
  EXPECT_EQ(parse_mix("table"), Mix::Table);
  EXPECT_EQ(parse_mix("mixed"), Mix::Mixed);
  EXPECT_THROW(parse_mix("chaos"), InvalidInput);
  EXPECT_THROW(parse_mix(""), InvalidInput);
  EXPECT_THROW(parse_mix("Route"), InvalidInput);  // tokens are lowercase
}

TEST(Loadgen, FixedSeedSynthesizesIdenticalStream) {
  LoadgenOptions options;
  options.requests = 500;
  options.seed = 42;
  options.mix = Mix::Mixed;
  const std::vector<Request> a = synthesize_requests(options, 100);
  const std::vector<Request> b = synthesize_requests(options, 100);
  ASSERT_EQ(a.size(), 500u);
  EXPECT_EQ(a, b);
  // The serialized wire form is identical too: the replay bytes are a pure
  // function of (options, num_nodes).
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(serialize_request(a[i]), serialize_request(b[i]));
  }
}

TEST(Loadgen, DifferentSeedsDiverge) {
  LoadgenOptions options;
  options.requests = 200;
  options.seed = 1;
  const std::vector<Request> a = synthesize_requests(options, 1000);
  options.seed = 2;
  const std::vector<Request> b = synthesize_requests(options, 1000);
  EXPECT_NE(a, b);
}

TEST(Loadgen, StreamIsIndependentOfConnectionsAndWindow) {
  LoadgenOptions options;
  options.requests = 100;
  options.connections = 1;
  options.window = 1;
  const std::vector<Request> a = synthesize_requests(options, 50);
  options.connections = 16;
  options.window = 64;
  const std::vector<Request> b = synthesize_requests(options, 50);
  EXPECT_EQ(a, b);
}

TEST(Loadgen, IdsAreSequentialFromOne) {
  LoadgenOptions options;
  options.requests = 25;
  const std::vector<Request> stream = synthesize_requests(options, 10);
  ASSERT_EQ(stream.size(), 25u);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i].id, i + 1);
  }
}

TEST(Loadgen, RequestsRespectOptionsAndGraphBounds) {
  LoadgenOptions options;
  options.requests = 300;
  options.mix = Mix::Mixed;
  options.kalt_k = 6;
  options.attack_rank = 11;
  options.weight = attack::WeightType::Length;
  const std::size_t num_nodes = 37;
  std::set<Verb> verbs_seen;
  for (const Request& r : synthesize_requests(options, num_nodes)) {
    verbs_seen.insert(r.verb);
    EXPECT_LT(r.source, num_nodes);
    EXPECT_LT(r.target, num_nodes);
    EXPECT_NE(r.source, r.target);
    EXPECT_EQ(r.weight, attack::WeightType::Length);
    if (r.verb == Verb::Kalt) {
      EXPECT_EQ(r.k, 6u);
    }
    if (r.verb == Verb::Attack) {
      EXPECT_EQ(r.rank, 11u);
      EXPECT_EQ(r.algorithm, attack::Algorithm::GreedyPathCover);
    }
  }
  // 300 mixed draws at 80/15/5 make all three verbs overwhelmingly likely.
  EXPECT_TRUE(verbs_seen.count(Verb::Route));
  EXPECT_TRUE(verbs_seen.count(Verb::Kalt));
  EXPECT_TRUE(verbs_seen.count(Verb::Attack));
}

TEST(Loadgen, PureMixesSynthesizeOnlyTheirVerb) {
  LoadgenOptions options;
  options.requests = 50;
  for (const auto& [mix, verb] :
       {std::pair{Mix::Route, Verb::Route}, std::pair{Mix::Kalt, Verb::Kalt},
        std::pair{Mix::Attack, Verb::Attack}}) {
    options.mix = mix;
    for (const Request& r : synthesize_requests(options, 20)) {
      EXPECT_EQ(r.verb, verb) << to_string(verb);
    }
  }
}

TEST(Loadgen, TableMixIsDeterministicAndItsWireFormRoundTrips) {
  LoadgenOptions options;
  options.requests = 50;
  options.seed = 9;
  options.mix = Mix::Table;
  const std::size_t num_nodes = 40;
  const std::vector<Request> a = synthesize_requests(options, num_nodes);
  const std::vector<Request> b = synthesize_requests(options, num_nodes);
  ASSERT_EQ(a.size(), 50u);
  EXPECT_EQ(a, b);
  for (const Request& r : a) {
    EXPECT_EQ(r.verb, Verb::Table);
    EXPECT_FALSE(r.sources.empty());
    EXPECT_LE(r.sources.size(), kMaxTableDim);
    EXPECT_EQ(r.sources.size(), r.targets.size());
    for (const std::uint32_t node : r.sources) EXPECT_LT(node, num_nodes);
    for (const std::uint32_t node : r.targets) EXPECT_LT(node, num_nodes);
    // A table's wire form carries only its sides, so the request holds
    // nothing else and parses back to itself.
    EXPECT_EQ(parse_request(serialize_request(r)), r);
  }
}

TEST(Loadgen, GraphProbeReadsTheNodeCountStrictly) {
  // A one-shot fake daemon whose `graph` answer carries trailing junk in
  // nodes=.  It closes its listener after the probe, so a client that
  // accepted "12abc" as 12 fails on its next connect instead of hanging.
  Listener listener = Listener::bind("127.0.0.1", 0);
  const std::uint16_t port = listener.port();
  std::thread daemon([&listener] {
    std::optional<Socket> client = listener.accept_for(10000);
    listener.close();
    if (!client) return;
    LineFramer framer;
    std::string line;
    char buf[256];
    while (!framer.next_line(line)) {
      const std::size_t n = client->read_some(buf, sizeof buf);
      if (n == 0) return;
      framer.feed(std::string_view(buf, n));
    }
    client->write_all("ok 0 graph nodes=12abc edges=30 pois=1\n");
  });
  LoadgenOptions options;
  options.requests = 1;
  options.connections = 1;
  try {
    (void)run_loadgen("127.0.0.1", port, options);
    ADD_FAILURE() << "loadgen accepted nodes=12abc";
  } catch (const InvalidInput& error) {
    EXPECT_NE(std::string(error.what()).find("'12abc'"), std::string::npos) << error.what();
  } catch (const std::exception& error) {
    ADD_FAILURE() << "expected InvalidInput, got: " << error.what();
  }
  daemon.join();
}

TEST(Loadgen, ReportPercentilesInterpolateUnlikeTheOldTruncation) {
  // The report now routes through the shared mts::percentile.  Pin the
  // case where it disagrees with loadgen's deleted private estimator:
  // three samples at q=0.99 truncated to sorted[floor(1.98)] = 2.0, while
  // linear interpolation gives 2 + 0.98 * (3 - 2) = 2.98.
  const std::vector<double> samples{3.0, 1.0, 2.0};
  EXPECT_NEAR(mts::percentile(samples, 0.99), 2.98, 1e-12);
  EXPECT_DOUBLE_EQ(mts::percentile(samples, 0.50), 2.0);
  EXPECT_DOUBLE_EQ(mts::percentile(samples, 1.0), 3.0);
}

TEST(Loadgen, UnreachableDaemonThrowsUpFront) {
  LoadgenOptions options;
  options.requests = 1;
  options.connections = 1;
  // Port 1 on loopback: nothing listens there in the test environment.
  EXPECT_THROW(run_loadgen("127.0.0.1", 1, options), Error);
}

}  // namespace
}  // namespace mts::net
