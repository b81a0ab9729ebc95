#include "graph/spatial_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace mts {
namespace {

std::vector<IndexedPoint> random_points(std::size_t n, Rng& rng, double extent = 1000.0) {
  std::vector<IndexedPoint> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back({rng.uniform(0, extent), rng.uniform(0, extent),
                      static_cast<std::uint32_t>(i)});
  }
  return points;
}

TEST(PointGrid, NearestMatchesBruteForce) {
  Rng rng(7);
  const auto points = random_points(400, rng);
  PointGrid grid(points, 50.0);
  for (int q = 0; q < 200; ++q) {
    const double x = rng.uniform(-100, 1100);
    const double y = rng.uniform(-100, 1100);
    double best = std::numeric_limits<double>::infinity();
    std::uint32_t best_id = 0;
    for (const auto& p : points) {
      const double d = std::hypot(p.x - x, p.y - y);
      if (d < best) {
        best = d;
        best_id = p.id;
      }
    }
    const auto hit = grid.nearest(x, y);
    ASSERT_TRUE(hit.has_value());
    // Compare by distance (ids may differ on exact ties).
    const auto& chosen = points[*hit];
    EXPECT_NEAR(std::hypot(chosen.x - x, chosen.y - y), best, 1e-9)
        << "query " << q << " id " << *hit << " vs " << best_id;
  }
}

TEST(PointGrid, WithinMatchesBruteForce) {
  Rng rng(9);
  const auto points = random_points(300, rng);
  PointGrid grid(points, 80.0);
  for (int q = 0; q < 50; ++q) {
    const double x = rng.uniform(0, 1000);
    const double y = rng.uniform(0, 1000);
    const double radius = rng.uniform(10, 200);
    auto result = grid.within(x, y, radius);
    std::sort(result.begin(), result.end());
    std::vector<std::uint32_t> expected;
    for (const auto& p : points) {
      if (std::hypot(p.x - x, p.y - y) <= radius) expected.push_back(p.id);
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(result, expected) << "query " << q;
  }
}

TEST(PointGrid, EmptyIndex) {
  PointGrid grid({}, 10.0);
  EXPECT_FALSE(grid.nearest(0, 0).has_value());
  EXPECT_TRUE(grid.within(0, 0, 100).empty());
}

TEST(PointGrid, SinglePoint) {
  PointGrid grid({{5.0, 5.0, 42}}, 10.0);
  const auto hit = grid.nearest(-1000, -1000);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 42u);
}

TEST(PointGrid, RejectsBadCellSize) {
  EXPECT_THROW(PointGrid({}, 0.0), PreconditionViolation);
}

}  // namespace
}  // namespace mts
