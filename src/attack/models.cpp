#include "attack/models.hpp"

#include "core/error.hpp"
#include "core/units.hpp"

namespace mts::attack {

const char* to_string(WeightType type) {
  switch (type) {
    case WeightType::Length: return "LENGTH";
    case WeightType::Time: return "TIME";
  }
  return "?";
}

const char* weight_token(WeightType type) {
  return type == WeightType::Time ? "time" : "length";
}

WeightType parse_weight(std::string_view token) {
  for (const WeightType type : kAllWeightTypes) {
    if (token == weight_token(type)) return type;
  }
  throw InvalidInput("unknown weight '" + std::string(token) + "' (time|length)");
}

const char* to_string(CostType type) {
  switch (type) {
    case CostType::Uniform: return "UNIFORM";
    case CostType::Lanes: return "LANES";
    case CostType::Width: return "WIDTH";
  }
  return "?";
}

std::vector<double> make_weights(const osm::RoadNetwork& network, WeightType type) {
  return type == WeightType::Length ? network.edge_lengths() : network.edge_times();
}

std::vector<double> make_costs(const osm::RoadNetwork& network, CostType type) {
  std::vector<double> costs;
  costs.reserve(network.segments().size());
  for (const auto& seg : network.segments()) {
    switch (type) {
      case CostType::Uniform:
        costs.push_back(1.0);
        break;
      case CostType::Lanes:
        costs.push_back(static_cast<double>(seg.lanes));
        break;
      case CostType::Width:
        costs.push_back(seg.width_m / kAverageCarWidthMeters);
        break;
    }
  }
  return costs;
}

}  // namespace mts::attack
