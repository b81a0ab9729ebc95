// The four Force Path Cut algorithms evaluated in the paper (§III-A):
//
//   LP-PathCover     — LP relaxation of weighted set cover + constraint
//                      generation + rounding (optimization-based)
//   GreedyPathCover  — greedy weighted set cover + constraint generation
//   GreedyEdge       — cut the minimum-weight edge (not in p*) on the
//                      current shortest path, repeat
//   GreedyEig        — cut the edge (not in p*) on the current shortest
//                      path with the highest eigen-score-to-cost ratio
//
// All operate on directed graphs and arbitrary weight/cost models, as the
// paper's adaptation of PATHATTACK requires.  The two PathCover algorithms
// run attack/path_cover.hpp's constraint-generation loop.
#pragma once

#include <cstdint>
#include <string_view>

#include "attack/problem.hpp"
#include "core/budget.hpp"

namespace mts::attack {

enum class Algorithm { LpPathCover, GreedyPathCover, GreedyEdge, GreedyEig };

const char* to_string(Algorithm algorithm);

/// The lowercase hyphenated token the CLI's --algorithm flag and the wire
/// protocol's attack verb both spell an algorithm with ("lp-pathcover",
/// "greedy-pathcover", "greedy-edge", "greedy-eig"); to_string() gives the
/// paper's display name instead.
const char* algorithm_token(Algorithm algorithm);

/// Inverse of algorithm_token().  Throws InvalidInput naming the token.
Algorithm parse_algorithm(std::string_view token);

inline constexpr Algorithm kAllAlgorithms[] = {Algorithm::LpPathCover,
                                               Algorithm::GreedyPathCover, Algorithm::GreedyEdge,
                                               Algorithm::GreedyEig};

struct AttackOptions {
  /// Seed for LP randomized rounding.
  std::uint64_t rng_seed = 1;
  /// The caller's work meter (nullptr = uncapped and uncounted): every
  /// search of the attack charges it, and run_attack() converts an
  /// exhausted cap into AttackStatus::BudgetExhausted.  Must outlive the
  /// call.
  WorkBudget* budget = nullptr;
};

/// Runs `algorithm` on `problem`.  The returned removal set never touches
/// edges of p*.  `result.seconds` measures the attack computation only.
/// Throws PreconditionViolation when any edge's cost is negative or not
/// finite (make an edge unremovable with `protected_edges` instead).
AttackResult run_attack(Algorithm algorithm, const ForcePathCutProblem& problem,
                        const AttackOptions& options = {});

}  // namespace mts::attack
