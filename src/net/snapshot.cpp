#include "net/snapshot.hpp"

#include <utility>

#include "obs/phase.hpp"
#include "osm/xml.hpp"

namespace mts::net {

namespace {

// The CH preprocessing pays for itself after a handful of requests; the
// daemon does it once, before the listener opens, so no request ever
// observes a half-built hierarchy.
ContractionHierarchy build_ch(const DiGraph& g, const std::vector<double>& weights) {
  obs::ScopedPhase phase("ch_build");
  return ContractionHierarchy::build(g, weights);
}

}  // namespace

Snapshot::Snapshot(osm::RoadNetwork network)
    : network_(std::move(network)),
      time_weights_(attack::make_weights(network_, attack::WeightType::Time)),
      length_weights_(attack::make_weights(network_, attack::WeightType::Length)),
      uniform_costs_(attack::make_costs(network_, attack::CostType::Uniform)),
      time_ch_(build_ch(network_.graph(), time_weights_)),
      length_ch_(build_ch(network_.graph(), length_weights_)) {}

Snapshot Snapshot::load(const std::string& osm_path) {
  return Snapshot(osm::RoadNetwork::build(osm::load_osm_xml(osm_path)));
}

}  // namespace mts::net
