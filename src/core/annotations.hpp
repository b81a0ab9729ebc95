// Clang Thread Safety Analysis annotation macros (no-ops elsewhere).
//
// The reproduction's headline guarantee — bit-identical tables at any
// thread count — is enforced dynamically by the TSan CI leg and the golden
// determinism suites.  These macros add the *static* half: every
// lock-protected member in core/obs/exp declares which capability guards
// it, and clang's -Wthread-safety (promoted to an error in
// MtsCompileOptions.cmake) rejects any access that does not hold the lock
// at compile time.  See DESIGN.md §11 "Static analysis".
//
// Usage pattern (core/mutex.hpp provides the annotated Mutex/MutexLock/
// CondVar wrappers; std::mutex itself is unannotated in libstdc++, so the
// analysis cannot see std::lock_guard acquisitions):
//
//   class Journal {
//     mts::Mutex mutex_;
//     std::ofstream out_ MTS_GUARDED_BY(mutex_);
//   };
//   void Journal::append(...) {
//     mts::MutexLock lock(mutex_);
//     out_ << ...;          // OK: lock held
//   }
//
// Suppression policy: a function whose locking protocol the analysis
// cannot express (e.g. the BasicLockable surface handed to a condition
// variable) carries MTS_NO_THREAD_SAFETY_ANALYSIS with a comment naming
// the invariant that makes it safe.  Never suppress to silence a finding
// you have not explained.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define MTS_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef MTS_THREAD_ANNOTATION
#define MTS_THREAD_ANNOTATION(x)  // no-op: gcc/msvc have no thread-safety analysis
#endif

/// Marks a type as a lockable capability (e.g. a mutex wrapper).
#define MTS_CAPABILITY(name) MTS_THREAD_ANNOTATION(capability(name))

/// Marks an RAII type that acquires a capability in its constructor and
/// releases it in its destructor.
#define MTS_SCOPED_CAPABILITY MTS_THREAD_ANNOTATION(scoped_lockable)

/// Declares that a data member is protected by the given capability.
#define MTS_GUARDED_BY(x) MTS_THREAD_ANNOTATION(guarded_by(x))

/// Declares that the data *pointed to* by a pointer member is protected.
#define MTS_PT_GUARDED_BY(x) MTS_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the capability to be held on entry (and does not
/// release it).
#define MTS_REQUIRES(...) MTS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the capability and holds it on return.
#define MTS_ACQUIRE(...) MTS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability (must be held on entry).
#define MTS_RELEASE(...) MTS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (deadlock prevention: the function
/// acquires it itself).
#define MTS_EXCLUDES(...) MTS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the named capability.
#define MTS_RETURN_CAPABILITY(x) MTS_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch for functions whose protocol the analysis cannot express.
/// Every use carries a comment naming the invariant that makes it safe.
#define MTS_NO_THREAD_SAFETY_ANALYSIS MTS_THREAD_ANNOTATION(no_thread_safety_analysis)
