// Deterministic random number generation.
//
// Every stochastic component of the library (city generation, source
// sampling, randomized LP rounding) draws from this engine so that a seed
// fully determines an experiment.  xoshiro256++ is used for speed and
// quality; seeding goes through SplitMix64 as its authors recommend.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <vector>

namespace mts {

/// SplitMix64 finalizer: a bijective 64-bit avalanche mix.  Adjacent inputs
/// map to statistically independent outputs, which is what makes it safe to
/// build stream seeds out of small integers (seeds, trial indices, ...).
std::uint64_t mix64(std::uint64_t x);

/// Derives a decorrelated substream seed from a base seed and a list of
/// stream coordinates (trial index, cost index, algorithm, ...).  Each
/// coordinate goes through a full mix64 avalanche round, so nearby base
/// seeds (ablation_seeds uses seed, seed+101, seed+202) and nearby
/// coordinates never produce overlapping or correlated streams — unlike
/// additive schemes such as `seed + ci * 131 + algorithm`.
std::uint64_t derive_seed(std::uint64_t seed, std::initializer_list<std::uint64_t> coords);

/// xoshiro256++ engine.  Satisfies UniformRandomBitGenerator, so it can
/// also drive <random> distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()();

  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform index in [0, n).  Requires n > 0.
  std::size_t uniform_index(std::size_t n);

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);

  /// Standard normal via Box-Muller (cached second value).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Bernoulli trial.
  bool chance(double p);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[uniform_index(i)]);
    }
  }

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace mts
