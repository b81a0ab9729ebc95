// Uniform-grid spatial index for nearest-point and radius queries.
//
// The city generator's avenue carving does nearest-node lookups per
// sample, an O(n) scan that dominates at paper-scale cities.  This
// bucket-grid index makes it ~O(1) expected.
#pragma once

#include <optional>
#include <vector>

#include "core/strong_id.hpp"

namespace mts {

/// A 2D point payload with an arbitrary id.
struct IndexedPoint {
  double x = 0.0;
  double y = 0.0;
  std::uint32_t id = 0;
};

/// Bucketed uniform grid over points.  Build once, query many times.
class PointGrid {
 public:
  /// `cell_size` should be on the order of the typical query radius
  /// (e.g. a city block).  Throws on non-positive cell size.
  PointGrid(std::vector<IndexedPoint> points, double cell_size);

  /// Id of the nearest point (expanding ring search; exact).
  /// nullopt only when the index is empty.
  [[nodiscard]] std::optional<std::uint32_t> nearest(double x, double y) const;

  /// Ids of all points within `radius` of (x, y).
  [[nodiscard]] std::vector<std::uint32_t> within(double x, double y, double radius) const;

  [[nodiscard]] std::size_t size() const { return points_.size(); }

 private:
  struct CellRange {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };
  [[nodiscard]] long cell_x(double x) const;
  [[nodiscard]] long cell_y(double y) const;
  [[nodiscard]] const CellRange* cell(long cx, long cy) const;

  std::vector<IndexedPoint> points_;  // sorted by cell
  std::vector<CellRange> ranges_;
  double cell_size_;
  double min_x_ = 0.0, min_y_ = 0.0;
  long cols_ = 0, rows_ = 0;
};

}  // namespace mts
