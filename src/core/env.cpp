#include "core/env.hpp"

#include <iostream>
#include <limits>

#include "core/error.hpp"
#include "core/fault.hpp"
#include "core/parse.hpp"
#include "core/thread_pool.hpp"
#include "core/timer.hpp"
#include "obs/metrics.hpp"

namespace mts {

std::int64_t env_int(const std::string& name, std::int64_t fallback) {
  const char* raw = env_raw(name.c_str());
  if (raw == nullptr || *raw == '\0') return fallback;
  const Parsed<std::int64_t> parsed = parse_signed(raw);
  if (!parsed) throw InvalidInput(name + ": expected an integer, got '" + raw + "'");
  return parsed.value;
}

double env_double(const std::string& name, double fallback) {
  const char* raw = env_raw(name.c_str());
  if (raw == nullptr || *raw == '\0') return fallback;
  const Parsed<double> parsed = parse_finite(raw);
  if (!parsed) throw InvalidInput(name + ": expected a finite number, got '" + raw + "'");
  return parsed.value;
}

std::size_t env_threads() {
  const char* raw = env_raw("MTS_THREADS");
  if (raw == nullptr || *raw == '\0') return 0;
  const Parsed<std::uint64_t> parsed = parse_unsigned(raw);
  if (!parsed || parsed.value > 1'000'000) {
    throw InvalidInput("MTS_THREADS: expected a non-negative thread count, got '" +
                       std::string(raw) + "'");
  }
  return static_cast<std::size_t>(parsed.value);
}

std::string env_string(const std::string& name, const std::string& fallback) {
  const char* raw = env_raw(name.c_str());
  if (raw == nullptr || *raw == '\0') return fallback;
  return raw;
}

namespace {

/// MTS_TRIALS and MTS_PATH_RANK: an int >= 1, or `fallback` when unset.
int env_positive_int(const char* name, int fallback) {
  const std::int64_t value = env_int(name, fallback);
  if (value < 1 || value > std::numeric_limits<int>::max()) {
    throw InvalidInput(std::string(name) + ": expected an integer >= 1, got '" +
                       std::to_string(value) + "'");
  }
  return static_cast<int>(value);
}

}  // namespace

BenchEnv BenchEnv::from_environment() {
  BenchEnv env;
  env.scale = env_double("MTS_SCALE", env.scale);
  if (!(env.scale > 0.0)) {
    throw InvalidInput("MTS_SCALE: expected a number > 0, got '" + env_string("MTS_SCALE", "") +
                       "'");
  }
  env.trials = env_positive_int("MTS_TRIALS", env.trials);
  const std::string seed = env_string("MTS_SEED", "");
  if (!seed.empty()) {
    const Parsed<std::uint64_t> parsed = parse_unsigned(seed);
    if (!parsed) {
      throw InvalidInput("MTS_SEED: expected a non-negative integer, got '" + seed + "'");
    }
    env.seed = parsed.value;
  }
  env.path_rank = env_positive_int("MTS_PATH_RANK", env.path_rank);
  env.threads = static_cast<int>(env_threads());
  // timing_enabled() (core/timer.hpp) reads MTS_TIMING itself and treats
  // only "0" as off, so any spelling but 0 or 1 would silently time.
  const std::string timing = env_string("MTS_TIMING", "1");
  if (timing != "0" && timing != "1") {
    throw InvalidInput("MTS_TIMING: expected 0 or 1, got '" + timing + "'");
  }
  env.checkpoint = env_string("MTS_CHECKPOINT", env.checkpoint);
  // Force the one-time MTS_FAULTS parse now: a malformed spec must abort at
  // startup, not surface later as a quarantine on every cell.
  (void)fault::faults_enabled();
  return env;
}

void BenchEnv::print_run_header(const std::string& binary_name) const {
  const auto resolution = thread_resolution();
  std::cerr << "[run] " << binary_name << ": scale=" << scale << " trials=" << trials
            << " seed=" << seed << " path_rank=" << path_rank
            << " threads=" << resolution.effective << " (requested "
            << (resolution.requested == 0 ? std::string("auto")
                                          : std::to_string(resolution.requested))
            << ", effective " << resolution.effective << ")"
            << " timing=" << (timing_enabled() ? 1 : 0)
            << " metrics=" << (obs::metrics_enabled() ? 1 : 0)
            << " trace=" << (obs::trace_enabled() ? 1 : 0);
  if (!checkpoint.empty()) std::cerr << " checkpoint=" << checkpoint;
  std::cerr << '\n';
}

}  // namespace mts
