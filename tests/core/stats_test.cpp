#include "core/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/error.hpp"

namespace mts {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.stddev(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats stats;
  stats.add(5.0);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 5.0);
  EXPECT_DOUBLE_EQ(stats.max(), 5.0);
}

TEST(RunningStats, KnownSample) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(RunningStats, NumericallyStableOnLargeOffsets) {
  RunningStats stats;
  // Naive sum-of-squares would lose all precision at this offset.
  const double offset = 1e9;
  for (double v : {offset + 1.0, offset + 2.0, offset + 3.0}) stats.add(v);
  EXPECT_NEAR(stats.mean(), offset + 2.0, 1e-3);
  EXPECT_NEAR(stats.variance(), 1.0, 1e-6);
}

TEST(Percentile, MedianAndQuartiles) {
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(values, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(values, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(values, 0.25), 2.0);
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 0.75), 7.5);
}

TEST(Percentile, UnsortedInput) {
  EXPECT_DOUBLE_EQ(percentile({9.0, 1.0, 5.0}, 0.5), 5.0);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW(percentile({}, 0.5), PreconditionViolation);
  EXPECT_THROW(percentile({1.0}, 1.5), PreconditionViolation);
}

}  // namespace
}  // namespace mts
