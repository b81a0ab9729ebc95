// Library-wide error type and precondition checks.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace mts {

/// Base class for every error thrown by this library.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown on malformed input data (bad OSM file, inconsistent graph, ...).
class InvalidInput : public Error {
 public:
  using Error::Error;
};

/// Thrown when an algorithm's preconditions are violated by the caller.
class PreconditionViolation : public Error {
 public:
  using Error::Error;
};

/// Thrown by check_invariants() validators when an internal data structure
/// is corrupt (broken CSR, discontiguous path, invalid simplex basis).
/// Reaching this is a library bug, never a caller error.
class InvariantViolation : public Error {
 public:
  using Error::Error;
};

/// Classifies the exception currently in flight into a stable
/// "<category>: <message>" string for quarantine records and JSON reports.
/// Categories: fault-injected, deadline-exceeded, budget-exhausted,
/// invariant-violation, precondition-violation, invalid-input, error,
/// bad-alloc, exception, unknown.  Must be called from inside a catch block (it rethrows the
/// active exception to inspect it).
std::string current_exception_taxonomy();

/// Checks a caller-facing precondition; throws PreconditionViolation with
/// file/line context on failure.  Used at public API boundaries (internal
/// invariants use MTS_DCHECK from core/check.hpp).  The message is a view,
/// so a literal costs nothing while the check passes; a message composed
/// with `+` is built on every call, so hot paths compose theirs only after
/// the check has failed (graph/dijkstra.cpp's require_for).
inline void require(bool condition, std::string_view message,
                    std::source_location loc = std::source_location::current()) {
  if (!condition) {
    throw PreconditionViolation(std::string(loc.file_name()) + ":" +
                                std::to_string(loc.line()) + ": " + std::string(message));
  }
}

}  // namespace mts
