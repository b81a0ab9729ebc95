// The paper's attacker objective (edge weight) and capability (edge
// removal cost) models (§II-B).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "osm/road_network.hpp"

namespace mts::attack {

/// What the victim minimizes — the attacker forces p* under this metric.
enum class WeightType {
  Length,  // road segment length, meters
  Time,    // free-flow travel time, seconds (length / speed limit)
};

/// What blocking a segment costs the attacker.
enum class CostType {
  Uniform,  // 1 per segment
  Lanes,    // number of lanes
  Width,    // road width / average American car width
};

const char* to_string(WeightType type);
const char* to_string(CostType type);

/// The lowercase token the CLI's --weight flag and the wire protocol both
/// spell a weight with ("time", "length"); to_string() gives the paper's
/// display name instead.
const char* weight_token(WeightType type);

/// Inverse of weight_token().  Throws InvalidInput naming the token.
WeightType parse_weight(std::string_view token);

inline constexpr WeightType kAllWeightTypes[] = {WeightType::Length, WeightType::Time};
inline constexpr CostType kAllCostTypes[] = {CostType::Uniform, CostType::Lanes,
                                             CostType::Width};

/// Per-edge weights under `type` (Eq. 1 for TIME).
std::vector<double> make_weights(const osm::RoadNetwork& network, WeightType type);

/// Per-edge removal costs under `type` (Eq. 2 for WIDTH).
std::vector<double> make_costs(const osm::RoadNetwork& network, CostType type);

}  // namespace mts::attack
