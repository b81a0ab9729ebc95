#include "core/budget.hpp"

#include "core/env.hpp"
#include "core/parse.hpp"

namespace mts {

WorkBudget WorkBudget::parse(std::string_view spec) {
  WorkBudget budget;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string_view entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      throw InvalidInput("MTS_BUDGET: malformed entry '" + std::string(entry) +
                         "' (expected key=N with key in edges|pivots|spurs)");
    }
    const std::string_view key = entry.substr(0, eq);
    const Parsed<std::uint64_t> parsed = parse_unsigned(entry.substr(eq + 1));
    if (!parsed || parsed.value == 0) {
      throw InvalidInput("MTS_BUDGET: bad count in '" + std::string(entry) +
                         "' (need a positive integer)");
    }
    if (key == "edges") {
      budget.max_edges_scanned = parsed.value;
    } else if (key == "pivots") {
      budget.max_lp_pivots = parsed.value;
    } else if (key == "spurs") {
      budget.max_spur_searches = parsed.value;
    } else {
      throw InvalidInput("MTS_BUDGET: unknown key '" + std::string(key) +
                         "' (expected edges|pivots|spurs)");
    }
  }
  return budget;
}

WorkBudget WorkBudget::from_environment() {
  const char* raw = env_raw("MTS_BUDGET");
  if (raw == nullptr || *raw == '\0') return WorkBudget{};
  return parse(raw);
}

void WorkBudget::exhausted(const char* counter, std::uint64_t cap) {
  throw BudgetExhausted(std::string("work budget exhausted: ") + counter +
                        " exceeded cap " + std::to_string(cap));
}

void WorkBudget::expired() {
  // Deliberately carries no elapsed time: the message lands on the wire and
  // wire bytes must not depend on scheduler jitter.
  throw DeadlineExceeded("request ran past its deadline");
}

}  // namespace mts
