#include "graph/spatial_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/error.hpp"

namespace mts {

namespace {

double point_distance(double x1, double y1, double x2, double y2) {
  return std::hypot(x1 - x2, y1 - y2);
}

}  // namespace

PointGrid::PointGrid(std::vector<IndexedPoint> points, double cell_size)
    : points_(std::move(points)), cell_size_(cell_size) {
  require(cell_size > 0.0, "PointGrid: cell size must be positive");
  if (points_.empty()) {
    cols_ = rows_ = 0;
    return;
  }
  double max_x = -std::numeric_limits<double>::infinity();
  double max_y = max_x;
  min_x_ = min_y_ = std::numeric_limits<double>::infinity();
  for (const auto& p : points_) {
    min_x_ = std::min(min_x_, p.x);
    min_y_ = std::min(min_y_, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }
  cols_ = static_cast<long>((max_x - min_x_) / cell_size_) + 1;
  rows_ = static_cast<long>((max_y - min_y_) / cell_size_) + 1;

  // Counting sort by cell id.
  const std::size_t num_cells = static_cast<std::size_t>(cols_) * static_cast<std::size_t>(rows_);
  std::vector<std::uint32_t> counts(num_cells + 1, 0);
  auto cell_of = [&](const IndexedPoint& p) {
    return static_cast<std::size_t>(cell_y(p.y)) * static_cast<std::size_t>(cols_) +
           static_cast<std::size_t>(cell_x(p.x));
  };
  for (const auto& p : points_) ++counts[cell_of(p) + 1];
  for (std::size_t i = 1; i <= num_cells; ++i) counts[i] += counts[i - 1];
  std::vector<IndexedPoint> sorted(points_.size());
  std::vector<std::uint32_t> cursor(counts.begin(), counts.end() - 1);
  for (const auto& p : points_) sorted[cursor[cell_of(p)]++] = p;
  points_ = std::move(sorted);

  ranges_.resize(num_cells);
  for (std::size_t i = 0; i < num_cells; ++i) ranges_[i] = {counts[i], counts[i + 1]};
}

long PointGrid::cell_x(double x) const {
  return std::clamp(static_cast<long>((x - min_x_) / cell_size_), 0L, cols_ - 1);
}
long PointGrid::cell_y(double y) const {
  return std::clamp(static_cast<long>((y - min_y_) / cell_size_), 0L, rows_ - 1);
}

const PointGrid::CellRange* PointGrid::cell(long cx, long cy) const {
  if (cx < 0 || cx >= cols_ || cy < 0 || cy >= rows_) return nullptr;
  return &ranges_[static_cast<std::size_t>(cy) * static_cast<std::size_t>(cols_) +
                  static_cast<std::size_t>(cx)];
}

std::optional<std::uint32_t> PointGrid::nearest(double x, double y) const {
  if (points_.empty()) return std::nullopt;
  const long cx = cell_x(x);
  const long cy = cell_y(y);

  std::optional<std::uint32_t> best_id;
  double best = std::numeric_limits<double>::infinity();
  const long max_ring = std::max(cols_, rows_);
  for (long ring = 0; ring <= max_ring; ++ring) {
    // Once a candidate is found, one extra ring certifies exactness
    // (anything outside is at least (ring-1)*cell away).
    if (best_id && static_cast<double>(ring - 1) * cell_size_ > best) break;
    for (long dy = -ring; dy <= ring; ++dy) {
      for (long dx = -ring; dx <= ring; ++dx) {
        if (std::max(std::abs(dx), std::abs(dy)) != ring) continue;  // ring boundary only
        const CellRange* range = cell(cx + dx, cy + dy);
        if (range == nullptr) continue;
        for (std::uint32_t i = range->begin; i < range->end; ++i) {
          const double dist = point_distance(x, y, points_[i].x, points_[i].y);
          if (dist < best) {
            best = dist;
            best_id = points_[i].id;
          }
        }
      }
    }
  }
  return best_id;
}

std::vector<std::uint32_t> PointGrid::within(double x, double y, double radius) const {
  std::vector<std::uint32_t> out;
  if (points_.empty() || radius < 0.0) return out;
  const long lo_x = cell_x(x - radius);
  const long hi_x = cell_x(x + radius);
  const long lo_y = cell_y(y - radius);
  const long hi_y = cell_y(y + radius);
  for (long cy = lo_y; cy <= hi_y; ++cy) {
    for (long cx = lo_x; cx <= hi_x; ++cx) {
      const CellRange* range = cell(cx, cy);
      if (range == nullptr) continue;
      for (std::uint32_t i = range->begin; i < range->end; ++i) {
        if (point_distance(x, y, points_[i].x, points_[i].y) <= radius) {
          out.push_back(points_[i].id);
        }
      }
    }
  }
  return out;
}

}  // namespace mts
