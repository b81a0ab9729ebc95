#include "core/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "core/error.hpp"

namespace mts {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntInRangeAndCoversEndpoints) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(9);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntRejectsEmptyRange) {
  Rng rng(9);
  EXPECT_THROW(rng.uniform_int(2, 1), PreconditionViolation);
}

TEST(Rng, UniformRealBoundsAndMean) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const double v = rng.uniform(2.0, 4.0);
    ASSERT_GE(v, 2.0);
    ASSERT_LT(v, 4.0);
    sum += v;
  }
  EXPECT_NEAR(sum / kDraws, 3.0, 0.02);
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng rng(13);
  constexpr int kDraws = 40000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / kDraws;
  const double var = sum_sq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceFrequency) {
  Rng rng(19);
  int hits = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) hits += rng.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.25, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to match
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(DeriveSeed, DeterministicAndOrderSensitive) {
  EXPECT_EQ(derive_seed(1, {2, 3}), derive_seed(1, {2, 3}));
  EXPECT_NE(derive_seed(1, {2, 3}), derive_seed(1, {3, 2}));
  EXPECT_NE(derive_seed(1, {2, 3}), derive_seed(2, {2, 3}));
}

TEST(DeriveSeed, NoCollisionsAcrossAdjacentSeedsAndCoordinates) {
  // The additive scheme this replaced (seed + ci * 131 + algorithm) collides
  // whenever adjacent base seeds or coordinate combinations alias; the mixed
  // derivation must keep every nearby (seed, trial, cost, algorithm) cell
  // distinct.
  std::set<std::uint64_t> seen;
  std::size_t cells = 0;
  for (std::uint64_t seed : {7u, 8u, 9u, 138u}) {  // 138 == 7 + 1*131
    for (std::uint64_t trial = 0; trial < 4; ++trial) {
      for (std::uint64_t ci = 0; ci < 3; ++ci) {
        for (std::uint64_t ai = 0; ai < 4; ++ai) {
          seen.insert(derive_seed(seed, {trial, ci, ai}));
          ++cells;
        }
      }
    }
  }
  EXPECT_EQ(seen.size(), cells);
}

TEST(DeriveSeed, AdjacentStreamsAreStatisticallyIndependent) {
  Rng a(derive_seed(42, {0}));
  Rng b(derive_seed(42, {1}));
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIndexWithinBounds) {
  Rng rng(37);
  for (int i = 0; i < 1000; ++i) ASSERT_LT(rng.uniform_index(7), 7u);
  EXPECT_THROW(rng.uniform_index(0), PreconditionViolation);
}

}  // namespace
}  // namespace mts
