#include "osm/tags.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <string_view>

#include "core/parse.hpp"
#include "core/units.hpp"

namespace mts::osm {

namespace {

std::string lower_trim(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char ch : raw) {
    if (!std::isspace(static_cast<unsigned char>(ch))) {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    }
  }
  return out;
}

/// Splits lower_trim()'d `text` into its leading number and the unit after
/// it ("35mph" is 35 and "mph").  The number ends at the first character
/// that cannot be part of one, and must be a finite decimal.
std::optional<double> leading_number(const std::string& text, std::string& rest) {
  const std::size_t end = std::min(text.find_first_not_of("0123456789.-e"), text.size());
  const Parsed<double> parsed = parse_finite(std::string_view(text).substr(0, end));
  if (!parsed) return std::nullopt;
  rest = text.substr(end);
  return parsed.value;
}

}  // namespace

std::optional<HighwayClass> parse_highway(const std::string& value) {
  const std::string v = lower_trim(value);
  auto strip_link = [](const std::string& s) {
    const auto pos = s.rfind("_link");
    return pos != std::string::npos && pos == s.size() - 5 ? s.substr(0, pos) : s;
  };
  const std::string base = strip_link(v);
  if (base == "motorway") return HighwayClass::Motorway;
  if (base == "trunk") return HighwayClass::Trunk;
  if (base == "primary") return HighwayClass::Primary;
  if (base == "secondary") return HighwayClass::Secondary;
  if (base == "tertiary") return HighwayClass::Tertiary;
  if (base == "residential" || base == "living_street") return HighwayClass::Residential;
  if (base == "service") return HighwayClass::Service;
  if (base == "unclassified" || base == "road") return HighwayClass::Unclassified;
  // Non-drivable ways.
  if (base == "footway" || base == "cycleway" || base == "path" || base == "pedestrian" ||
      base == "steps" || base == "track" || base == "bridleway" || base == "corridor") {
    return std::nullopt;
  }
  return HighwayClass::Unclassified;
}

const char* to_string(HighwayClass hw) {
  switch (hw) {
    case HighwayClass::Motorway: return "motorway";
    case HighwayClass::Trunk: return "trunk";
    case HighwayClass::Primary: return "primary";
    case HighwayClass::Secondary: return "secondary";
    case HighwayClass::Tertiary: return "tertiary";
    case HighwayClass::Residential: return "residential";
    case HighwayClass::Service: return "service";
    case HighwayClass::Unclassified: return "unclassified";
  }
  return "unclassified";
}

HighwayDefaults highway_defaults(HighwayClass hw) {
  switch (hw) {
    case HighwayClass::Motorway: return {mph_to_mps(65.0), 4};
    case HighwayClass::Trunk: return {mph_to_mps(55.0), 3};
    case HighwayClass::Primary: return {mph_to_mps(40.0), 2};
    case HighwayClass::Secondary: return {mph_to_mps(35.0), 2};
    case HighwayClass::Tertiary: return {mph_to_mps(30.0), 1};
    case HighwayClass::Residential: return {mph_to_mps(25.0), 1};
    case HighwayClass::Service: return {mph_to_mps(15.0), 1};
    case HighwayClass::Unclassified: return {mph_to_mps(25.0), 1};
  }
  return {mph_to_mps(25.0), 1};
}

std::optional<double> parse_maxspeed(const std::string& value) {
  const std::string v = lower_trim(value);
  std::string rest;
  const auto number = leading_number(v, rest);
  if (!number || *number <= 0.0) return std::nullopt;
  if (rest == "mph") return mph_to_mps(*number);
  if (rest.empty() || rest == "km/h" || rest == "kmh" || rest == "kph") {
    return kmh_to_mps(*number);
  }
  return std::nullopt;
}

std::optional<int> parse_lanes(const std::string& value) {
  const std::string v = lower_trim(value);
  std::string rest;
  const auto number = leading_number(v, rest);
  if (!number || !rest.empty()) return std::nullopt;
  // Whole and within int before the cast: "1e10" would not fit.
  if (*number < 1.0 || *number > std::numeric_limits<int>::max() ||
      std::trunc(*number) != *number) {
    return std::nullopt;
  }
  return static_cast<int>(*number);
}

std::optional<double> parse_width(const std::string& value) {
  const std::string v = lower_trim(value);
  std::string rest;
  const auto number = leading_number(v, rest);
  if (!number || *number <= 0.0) return std::nullopt;
  if (rest.empty() || rest == "m") return *number;
  if (rest == "'" || rest == "ft" || rest == "feet") return feet_to_meters(*number);
  return std::nullopt;
}

OnewayDirection parse_oneway(const std::string& value) {
  const std::string v = lower_trim(value);
  if (v == "yes" || v == "true" || v == "1") return OnewayDirection::Forward;
  if (v == "-1" || v == "reverse") return OnewayDirection::Backward;
  return OnewayDirection::No;
}

}  // namespace mts::osm
