#include "viz/svg.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "core/error.hpp"

namespace mts::viz {

namespace {

constexpr double kWidthPx = 1200.0;
constexpr double kMarginPx = 24.0;
constexpr std::string_view kBackground = "#ffffff";
constexpr std::string_view kRoadColor = "#c9c9c9";
constexpr std::string_view kPStarColor = "#1f5fd7";
constexpr std::string_view kRemovedColor = "#d7261f";
constexpr std::string_view kSourceColor = "#1f5fd7";
constexpr std::string_view kTargetColor = "#f2c414";
constexpr double kRoadWidth = 1.0;
constexpr double kPStarWidth = 3.5;
constexpr double kRemovedWidth = 4.0;
constexpr double kEndpointRadius = 9.0;

struct Bounds {
  double min_x = std::numeric_limits<double>::infinity();
  double min_y = std::numeric_limits<double>::infinity();
  double max_x = -std::numeric_limits<double>::infinity();
  double max_y = -std::numeric_limits<double>::infinity();

  void include(double x, double y) {
    min_x = std::min(min_x, x);
    min_y = std::min(min_y, y);
    max_x = std::max(max_x, x);
    max_y = std::max(max_y, y);
  }
  [[nodiscard]] double width() const { return std::max(1.0, max_x - min_x); }
  [[nodiscard]] double height() const { return std::max(1.0, max_y - min_y); }
};

class SvgWriter {
 public:
  explicit SvgWriter(Bounds bounds)
      : bounds_(bounds),
        scale_((kWidthPx - 2 * kMarginPx) / bounds.width()),
        height_px_(bounds.height() * scale_ + 2 * kMarginPx) {}

  void open(const std::string& title) {
    out_ << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
         << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << kWidthPx << "\" height=\""
         << height_px_ << "\" viewBox=\"0 0 " << kWidthPx << " " << height_px_ << "\">\n"
         << "<rect width=\"100%\" height=\"100%\" fill=\"" << kBackground << "\"/>\n";
    if (!title.empty()) {
      out_ << "<text x=\"" << kMarginPx << "\" y=\"" << kMarginPx * 0.8
           << "\" font-family=\"sans-serif\" font-size=\"16\" fill=\"#333\">" << title
           << "</text>\n";
    }
  }

  void line(double x1, double y1, double x2, double y2, std::string_view color,
            double stroke_width) {
    out_ << "<line x1=\"" << px(x1) << "\" y1=\"" << py(y1) << "\" x2=\"" << px(x2)
         << "\" y2=\"" << py(y2) << "\" stroke=\"" << color << "\" stroke-width=\""
         << stroke_width << "\" stroke-linecap=\"round\"/>\n";
  }

  void circle(double x, double y, double radius, std::string_view fill) {
    out_ << "<circle cx=\"" << px(x) << "\" cy=\"" << py(y) << "\" r=\"" << radius
         << "\" fill=\"" << fill << "\" stroke=\"#333\" stroke-width=\"1.5\"/>\n";
  }

  std::string close() {
    out_ << "</svg>\n";
    return out_.str();
  }

 private:
  // SVG y grows downward; city y grows northward.
  [[nodiscard]] double px(double x) const { return kMarginPx + (x - bounds_.min_x) * scale_; }
  [[nodiscard]] double py(double y) const {
    return height_px_ - kMarginPx - (y - bounds_.min_y) * scale_;
  }

  Bounds bounds_;
  double scale_;
  double height_px_;
  std::ostringstream out_;
};

}  // namespace

std::string render_attack_svg(const osm::RoadNetwork& network, const Path& p_star,
                              const std::vector<EdgeId>& removed_edges, NodeId source,
                              NodeId target, const RenderOptions& options) {
  const auto& g = network.graph();
  Bounds bounds;
  for (NodeId n : g.nodes()) bounds.include(g.x(n), g.y(n));

  SvgWriter svg(bounds);
  svg.open(options.title);

  std::vector<std::uint8_t> highlighted(g.num_edges(), 0);
  for (EdgeId e : p_star.edges) highlighted[e.value()] = 1;
  for (EdgeId e : removed_edges) highlighted[e.value()] = 2;

  auto draw_edges = [&](std::uint8_t layer, std::string_view color, double width) {
    for (EdgeId e : g.edges()) {
      if (highlighted[e.value()] != layer) continue;
      const NodeId u = g.edge_from(e);
      const NodeId v = g.edge_to(e);
      svg.line(g.x(u), g.y(u), g.x(v), g.y(v), color, width);
    }
  };
  draw_edges(0, kRoadColor, kRoadWidth);
  draw_edges(1, kPStarColor, kPStarWidth);
  draw_edges(2, kRemovedColor, kRemovedWidth);

  svg.circle(g.x(source), g.y(source), kEndpointRadius, kSourceColor);
  svg.circle(g.x(target), g.y(target), kEndpointRadius, kTargetColor);
  return svg.close();
}

void save_attack_svg(const std::string& path, const osm::RoadNetwork& network,
                     const Path& p_star, const std::vector<EdgeId>& removed_edges,
                     NodeId source, NodeId target, const RenderOptions& options) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(p);
  require(out.good(), "save_attack_svg: cannot open " + path);
  out << render_attack_svg(network, p_star, removed_edges, source, target, options);
}

}  // namespace mts::viz
