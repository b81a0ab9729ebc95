#include "graph/ch_assets.hpp"

#include <string>
#include <utility>

#include "core/env.hpp"
#include "core/error.hpp"

namespace mts {

ChAssets ChAssets::build(const DiGraph& g, std::span<const double> weights,
                         const ChOptions& options) {
  ContractionHierarchy ch = ContractionHierarchy::build(g, weights, options);
  CchTopology cch = CchTopology::build(g, ch.ranks());
  return ChAssets{std::move(ch), std::move(cch)};
}

bool ch_enabled() {
  const char* raw = env_raw("MTS_CH");
  if (raw == nullptr || *raw == '\0') return true;
  const std::string value(raw);
  if (value != "0" && value != "1") {
    throw InvalidInput("MTS_CH: expected 0 or 1, got '" + value + "'");
  }
  return value == "1";
}

}  // namespace mts
