#include "core/fault.hpp"

#include <chrono>
#include <cstdlib>
#include <thread>

#include "core/env.hpp"
#include "core/mutex.hpp"
#include "obs/metrics.hpp"

namespace mts::fault {

std::string to_string(Action action) {
  switch (action) {
    case Action::None:
      return "none";
    case Action::Throw:
      return "throw";
    case Action::Nan:
      return "nan";
    case Action::Limit:
      return "limit";
    case Action::Stall:
      return "stall";
  }
  return "unknown";
}

namespace {

constexpr std::size_t kMaxPoints = 32;

struct Point {
  std::string name;
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> fire_at{0};  // 0 = disarmed
  std::atomic<int> action{static_cast<int>(Action::None)};
};

Action parse_action(std::string_view token) {
  if (token == "throw") return Action::Throw;
  if (token == "nan") return Action::Nan;
  if (token == "limit") return Action::Limit;
  if (token == "stall") return Action::Stall;
  throw InvalidInput("MTS_FAULTS: unknown action '" + std::string(token) +
                     "' (expected throw|nan|limit|stall)");
}

}  // namespace

struct FaultRegistry::Impl {
  mutable Mutex mutex;  // guards registration/arming
  // Stable storage with a split protection protocol: Point::name is written
  // once under `mutex` (find_or_add) before `count` is published with a
  // release store; the Point atomics (hits/fire_at/action) are lock-free on
  // the hit() fast path.  Per-field guards inside an array element are not
  // expressible to the analysis, so the array itself stays unannotated.
  std::array<Point, kMaxPoints> points;
  std::atomic<std::size_t> count{0};

  std::size_t find_or_add(std::string_view name) MTS_EXCLUDES(mutex) {
    MutexLock lock(mutex);
    const std::size_t n = count.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) {
      if (points[i].name == name) return i;
    }
    require(n < kMaxPoints, "fault registry: too many fault points");
    points[n].name = std::string(name);
    count.store(n + 1, std::memory_order_release);
    return n;
  }
};

FaultRegistry::Impl& FaultRegistry::impl() {
  static Impl instance;
  return instance;
}

FaultRegistry& FaultRegistry::instance() {
  static FaultRegistry registry;
  return registry;
}

PointId FaultRegistry::point(std::string_view name) {
  return PointId{static_cast<std::uint32_t>(impl().find_or_add(name))};
}

Action FaultRegistry::hit(PointId id) {
  Point& p = impl().points[id.index];
  // fetch_add makes hit number `n` unique even across threads, so the
  // trigger fires exactly once regardless of the thread interleaving.
  const std::uint64_t n = p.hits.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::uint64_t at = p.fire_at.load(std::memory_order_relaxed);
  if (at == 0 || n != at) return Action::None;
  // Cold branch: registration here keeps the counter out of clean-run
  // metrics snapshots (bench_gate byte-identity).
  static const obs::CounterId kInjected =
      obs::MetricsRegistry::instance().counter("fault.injected");
  obs::add(kInjected);
  return static_cast<Action>(p.action.load(std::memory_order_relaxed));
}

void FaultRegistry::arm(std::string_view name, std::uint64_t after, Action action) {
  require(after >= 1, "fault registry: trigger hit count must be >= 1");
  require(action != Action::None, "fault registry: cannot arm Action::None");
  Point& p = impl().points[impl().find_or_add(name)];
  p.action.store(static_cast<int>(action), std::memory_order_relaxed);
  p.fire_at.store(after, std::memory_order_relaxed);
  detail::g_faults_override.store(1, std::memory_order_relaxed);
}

void FaultRegistry::arm_from_spec(std::string_view spec) {
  // Grammar: entry ("," entry)*;  entry := name ":after=" N ":" action
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string_view entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    const std::size_t c1 = entry.find(':');
    const std::size_t c2 = (c1 == std::string_view::npos)
                               ? std::string_view::npos
                               : entry.find(':', c1 + 1);
    if (c1 == std::string_view::npos || c2 == std::string_view::npos) {
      throw InvalidInput("MTS_FAULTS: malformed entry '" + std::string(entry) +
                         "' (expected name:after=N:action)");
    }
    const std::string_view name = entry.substr(0, c1);
    const std::string_view after_kv = entry.substr(c1 + 1, c2 - c1 - 1);
    const std::string_view action_tok = entry.substr(c2 + 1);
    constexpr std::string_view kAfterKey = "after=";
    if (name.empty() || after_kv.substr(0, kAfterKey.size()) != kAfterKey) {
      throw InvalidInput("MTS_FAULTS: malformed entry '" + std::string(entry) +
                         "' (expected name:after=N:action)");
    }
    const std::string count_str(after_kv.substr(kAfterKey.size()));
    // strtoull silently wraps negatives, so insist on a leading digit.
    if (count_str.empty() || count_str[0] < '0' || count_str[0] > '9') {
      throw InvalidInput("MTS_FAULTS: bad trigger count in '" + std::string(entry) +
                         "' (need a positive integer)");
    }
    char* end = nullptr;
    const unsigned long long after = std::strtoull(count_str.c_str(), &end, 10);
    if (end == count_str.c_str() || *end != '\0' || after == 0) {
      throw InvalidInput("MTS_FAULTS: bad trigger count in '" + std::string(entry) +
                         "' (need a positive integer)");
    }
    arm(name, after, parse_action(action_tok));
  }
}

void FaultRegistry::reset() {
  Impl& im = impl();
  MutexLock lock(im.mutex);
  const std::size_t n = im.count.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; ++i) {
    im.points[i].hits.store(0, std::memory_order_relaxed);
    im.points[i].fire_at.store(0, std::memory_order_relaxed);
    im.points[i].action.store(static_cast<int>(Action::None), std::memory_order_relaxed);
  }
  detail::g_faults_override.store(0, std::memory_order_relaxed);
}

void throw_injected(const char* name, Action action) {
  throw FaultInjected(std::string("fault injected at ") + name + " (action " +
                      to_string(action) + ")");
}

void stall() { std::this_thread::sleep_for(std::chrono::milliseconds(kStallMillis)); }

namespace detail {

bool env_armed() {
  // One-time parse; the magic static is the synchronization.  After this,
  // runs with MTS_FAULTS unset flip g_faults_override to 0 so every later
  // faults_enabled() is the single relaxed load.
  static const bool armed = [] {
    const char* raw = env_raw("MTS_FAULTS");
    if (raw == nullptr || *raw == '\0') {
      g_faults_override.store(0, std::memory_order_relaxed);
      return false;
    }
    FaultRegistry::instance().arm_from_spec(raw);
    return true;
  }();
  return armed;
}

}  // namespace detail

}  // namespace mts::fault
