// Deterministic fault-injection registry.
//
// Robustness features (quarantine, fallback, resume) are only trustworthy if
// failures can be produced on demand at exact, reproducible points.  This
// registry provides named fault points compiled into the library:
//
//   MTS_FAULT_POINT("lp.pivot");             // throws FaultInjected when armed
//   switch (MTS_FAULT_ACTION("lp.pivot")) {  // site emulates Nan/Limit natively
//     case fault::Action::Nan:   ...; break;
//     case fault::Action::Limit: ...; break;
//     ...
//   }
//
// Points are armed via MTS_FAULTS="lp.pivot:after=100:throw" (comma-separated
// entries, actions: throw | nan | limit | stall) or programmatically through
// FaultRegistry::arm().  A point fires exactly once, on hit number `after`
// (1-based, counted process-wide with an atomic increment, so the firing hit
// is unique even across threads).
//
// Hot-path discipline mirrors the obs layer: every site first checks
// faults_enabled(), a relaxed atomic load, so a disarmed run pays one
// predictable branch per site and changes zero output bytes (DESIGN.md §10).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/error.hpp"

namespace mts::fault {

/// Thrown by an armed `throw`-action fault point (and by plain sites for any
/// action) when the trigger hit count is reached.  Deliberately NOT caught by
/// the solve chain's degradation paths: an injected fault must surface to the
/// harness quarantine, proving end-to-end isolation.
class FaultInjected : public Error {
 public:
  using Error::Error;
};

/// What an armed fault point does on its trigger hit.
enum class Action : int {
  None = 0,   ///< not this hit (or disarmed)
  Throw = 1,  ///< throw FaultInjected
  Nan = 2,    ///< site poisons a value with quiet NaN
  Limit = 3,  ///< site reports a forced iteration/search limit
  Stall = 4,  ///< site sleeps kStallMillis, emulating a wedged peer/syscall
};

/// How long an Action::Stall site sleeps before proceeding.  Long enough to
/// dominate loopback round-trips in tests, short enough to keep chaos legs
/// fast.
inline constexpr int kStallMillis = 400;

std::string to_string(Action action);

namespace detail {
/// -1 = decide from MTS_FAULTS on first query; 0/1 = forced.
inline std::atomic<int> g_faults_override{-1};
/// Parses and arms MTS_FAULTS once; true when the variable armed anything.
bool env_armed();
}  // namespace detail

/// True when any fault point may be armed.  A single relaxed load on the
/// steady-state path; disarmed runs never reach the registry.
inline bool faults_enabled() {
  const int forced = detail::g_faults_override.load(std::memory_order_relaxed);
  if (forced >= 0) return forced != 0;
  return detail::env_armed();
}

/// Every fault point compiled into the library.  Tests and the CI smoke leg
/// iterate this list; keep it in sync with the MTS_FAULT_POINT/ACTION sites.
inline constexpr std::array<const char*, 6> kKnownPoints = {
    "lp.pivot",        // simplex.cpp, once per pivot
    "yen.spur",        // yen.cpp, once per spur search
    "oracle.solve",    // oracle.cpp, once per exclusivity query
    "pool.task",       // table_runner.cpp, once per grid cell task
    "routed.request",  // net/engine.cpp, once per routed request
    "net.write",       // net/server.cpp, once per queued response write
};

struct PointId {
  std::uint32_t index = 0;
};

/// Registry of named fault points.  Registration and arming are mutex-backed
/// cold paths; hit() is a pair of relaxed atomic ops.
class FaultRegistry {
 public:
  /// Process-wide singleton (function-local static).
  static FaultRegistry& instance();

  /// Registers (or looks up) a point by name.  Idempotent; intended for
  /// function-local statics at instrumentation sites.
  PointId point(std::string_view name);

  /// Counts one hit of `id`; returns the armed action iff this hit is the
  /// trigger, Action::None otherwise.  Caller owns the faults_enabled()
  /// check.  Bumps the `fault.injected` obs counter when it fires.
  Action hit(PointId id);

  /// Arms `name` (registering it if needed) to fire `action` on hit number
  /// `after` (1-based; `after` must be >= 1).  Forces faults_enabled() on.
  void arm(std::string_view name, std::uint64_t after, Action action);

  /// Parses an MTS_FAULTS-style spec ("name:after=N:action,...") and arms
  /// every entry.  Throws InvalidInput on a malformed spec.
  void arm_from_spec(std::string_view spec);

  /// Disarms every point, zeroes hit counts, and forces faults_enabled()
  /// off.  For test isolation.
  void reset();

  /// Names of all currently registered points, in registration order.
  [[nodiscard]] std::vector<std::string> point_names() const;

 private:
  FaultRegistry() = default;

  struct Impl;
  static Impl& impl();
};

/// Throws FaultInjected describing a fired plain site.  Out of line so the
/// macro below stays small at every site.
[[noreturn]] void throw_injected(const char* name, Action action);

/// What a value site does on Action::Stall: sleeps kStallMillis, then the
/// site carries on with its normal work.
void stall();

}  // namespace mts::fault

/// Value site: evaluates to the Action fired at this hit (Action::None on the
/// fast path).  The site is responsible for emulating Nan/Limit.
#define MTS_FAULT_ACTION(name_literal)                                         \
  (::mts::fault::faults_enabled()                                              \
       ? [] {                                                                  \
           static const ::mts::fault::PointId mts_fault_point_id =             \
               ::mts::fault::FaultRegistry::instance().point(name_literal);    \
           return ::mts::fault::FaultRegistry::instance().hit(                 \
               mts_fault_point_id);                                            \
         }()                                                                   \
       : ::mts::fault::Action::None)

/// Plain site: any fired action escalates to a FaultInjected throw.  Used
/// where Nan/Limit have no safe native emulation.
#define MTS_FAULT_POINT(name_literal)                                          \
  do {                                                                         \
    const ::mts::fault::Action mts_fault_fired = MTS_FAULT_ACTION(name_literal); \
    if (mts_fault_fired != ::mts::fault::Action::None) [[unlikely]] {          \
      ::mts::fault::throw_injected(name_literal, mts_fault_fired);             \
    }                                                                          \
  } while (false)
