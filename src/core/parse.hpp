// The one number grammar for every number read from outside the program:
// environment knobs, CLI flags, wire tokens, budget and fault specs, the
// checkpoint journal, OSM attributes and OSM tags.
//
// Three strict readers, each over a whole token.  None accepts whitespace,
// a leading '+', a base prefix, "inf", "nan" or a value that does not fit
// its type; callers check the value's range where it enters.  Header-only,
// so the wire parse on the daemon's request path compiles to the same loop
// it always ran.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string_view>
#include <system_error>

namespace mts {

enum class ParseStatus : std::uint8_t { Ok, Malformed, Overflow };

/// A reader's verdict and, when it is Ok, the value read.
template <typename T>
struct Parsed {
  T value{};
  ParseStatus status = ParseStatus::Malformed;

  [[nodiscard]] constexpr explicit operator bool() const { return status == ParseStatus::Ok; }
};

/// One or more ASCII digits and nothing else ("07" is 7).  Overflow means
/// the digits are well formed but exceed 2^64 - 1.
constexpr Parsed<std::uint64_t> parse_unsigned(std::string_view token) {
  Parsed<std::uint64_t> out;
  if (token.empty()) return out;
  std::uint64_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') return out;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      out.status = ParseStatus::Overflow;
      return out;
    }
    value = value * 10 + digit;
  }
  out.value = value;
  out.status = ParseStatus::Ok;
  return out;
}

/// An optional leading '-', then parse_unsigned's digits; the value must
/// fit std::int64_t.
constexpr Parsed<std::int64_t> parse_signed(std::string_view token) {
  const bool negative = !token.empty() && token.front() == '-';
  const Parsed<std::uint64_t> magnitude = parse_unsigned(token.substr(negative ? 1 : 0));
  Parsed<std::int64_t> out;
  out.status = magnitude.status;
  if (!magnitude) return out;
  constexpr auto kMax = static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  if (magnitude.value > kMax + (negative ? 1 : 0)) {
    out.status = ParseStatus::Overflow;
    return out;
  }
  // Unsigned negation wraps to 2^64 - m, which converts to -m (C++20), so
  // -2^63 needs no special case.
  out.value = static_cast<std::int64_t>(negative ? 0 - magnitude.value : magnitude.value);
  return out;
}

/// A finite decimal: an optional leading '-', digits with an optional '.',
/// and an optional exponent ("1e3", ".5" and "1." are fine).  Correctly
/// rounded, so it reads %.17g text back to the same double strtod does.
/// Overflow means the magnitude is outside the double range: too large, or
/// too small to tell from zero.
inline Parsed<double> parse_finite(std::string_view token) {
  Parsed<double> out;
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, out.value);
  if (stop != end) return out;
  if (error == std::errc::result_out_of_range) {
    out.status = ParseStatus::Overflow;
  } else if (error == std::errc() && std::isfinite(out.value)) {
    out.status = ParseStatus::Ok;
  }
  return out;
}

}  // namespace mts
