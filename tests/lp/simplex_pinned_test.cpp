// Pins solve_lp pivot for pivot: 300 seeded covering LPs must reproduce
// the recorded status, objective, iteration count, limit phase and every
// x_j bit for bit (tests/lp/golden/simplex_pinned_answers.txt).  The
// instance mix covers what the attacks pose: continuous, unit and small
// integer costs, path-like overlapping sets, and heavily repeated rows that
// stall Dantzig pricing long enough to switch to Bland's rule.  A few
// instances carry an empty set (Infeasible) or a negative cost (Unbounded).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "lp/simplex.hpp"

namespace mts {
namespace {

constexpr std::uint64_t kInstances = 300;

CoveringProblem pinned_instance(std::uint64_t seed) {
  Rng rng(seed);
  const std::uint64_t mode = seed % 4;
  const std::size_t n = 2 + rng.uniform_index(mode == 3 ? 40 : 79);
  const std::size_t m = 1 + rng.uniform_index(mode == 3 ? 150 : 40);
  CoveringProblem p;
  for (std::size_t j = 0; j < n; ++j) {
    p.costs.push_back(mode == 0   ? rng.uniform(0.5, 5.0)
                      : mode == 2 ? static_cast<double>(rng.uniform_int(1, 4))
                                  : 1.0);
  }
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<std::size_t> set;
    if (mode == 3 && !p.sets.empty() && rng.chance(0.85)) {
      set = p.sets[rng.uniform_index(p.sets.size())];
    } else if (mode == 1 || mode == 3) {
      const std::size_t start = rng.uniform_index(n);
      const std::size_t len = 1 + rng.uniform_index(std::min<std::size_t>(n, 12));
      for (std::size_t k = 0; k < len; ++k) set.push_back((start + k) % n);
    } else {
      const double density = rng.uniform(0.1, 0.5);
      for (std::size_t j = 0; j < n; ++j) {
        if (rng.chance(density)) set.push_back(j);
      }
      if (set.empty()) set.push_back(rng.uniform_index(n));
    }
    p.sets.push_back(std::move(set));
  }
  if (seed % 100 == 0) p.sets.emplace_back();
  if (seed % 100 == 50) p.costs[0] = -1.0;
  return p;
}

/// One answer line in the golden file's format.
std::string answer_line(std::uint64_t seed, const LpResult& r) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%llu %s %a %zu %d %zu", static_cast<unsigned long long>(seed),
                to_string(r.status).c_str(), r.objective, r.iterations, r.limit_phase, r.x.size());
  std::string line = buf;
  for (std::size_t j = 0; j < r.x.size(); ++j) {
    if (r.x[j] == 0.0 && !std::signbit(r.x[j])) continue;
    std::snprintf(buf, sizeof buf, " %zu:%a", j, r.x[j]);
    line += buf;
  }
  return line;
}

TEST(SimplexPinned, SeededCoveringLpsMatchRecordedAnswersBitForBit) {
  std::ifstream in(std::string(MTS_TEST_LP_GOLDEN_DIR) + "/simplex_pinned_answers.txt");
  ASSERT_TRUE(in.good());
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') expected.push_back(line);
  }
  ASSERT_EQ(expected.size(), kInstances);

  std::size_t mismatches = 0;
  for (std::uint64_t seed = 1; seed <= kInstances; ++seed) {
    const std::string actual = answer_line(seed, solve_lp(pinned_instance(seed)));
    if (actual == expected[seed - 1]) continue;
    ++mismatches;
    ADD_FAILURE() << "seed " << seed << "\n  expected: " << expected[seed - 1]
                  << "\n  actual:   " << actual;
    if (mismatches >= 5) break;
  }
}

}  // namespace
}  // namespace mts
