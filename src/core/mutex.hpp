// Annotated mutex / condition-variable wrappers for Thread Safety Analysis.
//
// libstdc++'s std::mutex carries no capability attributes, so clang's
// -Wthread-safety cannot see a std::lock_guard acquire it and every
// MTS_GUARDED_BY member access would be flagged as unprotected.  These thin
// wrappers re-expose the standard primitives with the annotations attached;
// they compile to exactly the std:: calls (header-only, no extra state), so
// non-clang builds and the TSan leg see the identical synchronization.
//
// Condition-variable discipline: the analysis cannot model a predicate
// lambda evaluated with the lock held inside std::condition_variable_any,
// so waits are written as explicit loops —
//
//   mts::MutexLock lock(mutex_);
//   while (!ready_) cv_.wait(lock);   // ready_ is MTS_GUARDED_BY(mutex_)
//
// — which the analysis checks exactly (the condition read provably happens
// under the lock).
#pragma once

#include <condition_variable>
#include <mutex>

#include "core/annotations.hpp"

namespace mts {

/// std::mutex with the `capability` attribute so MTS_GUARDED_BY members can
/// name it and MutexLock acquisitions are visible to the analysis.
class MTS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() MTS_ACQUIRE() { m_.lock(); }
  void unlock() MTS_RELEASE() { m_.unlock(); }

 private:
  std::mutex m_;
};

/// RAII scope holding a Mutex, equivalent to std::lock_guard but visible to
/// the analysis.  Also satisfies BasicLockable so CondVar can wait on it.
class MTS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) MTS_ACQUIRE(mutex) : mutex_(mutex) { mutex_.lock(); }
  ~MutexLock() MTS_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // BasicLockable surface used only by CondVar::wait's internal
  // unlock/relock.  The capability is held again by the time wait returns,
  // so the scope's end state is unchanged; the analysis cannot follow the
  // round-trip through the standard header, hence the suppression.
  void lock() MTS_NO_THREAD_SAFETY_ANALYSIS { mutex_.lock(); }
  void unlock() MTS_NO_THREAD_SAFETY_ANALYSIS { mutex_.unlock(); }

 private:
  Mutex& mutex_;
};

/// Condition variable waiting on a MutexLock.  Wrapping keeps every wait
/// site on the annotated lock type; see the header comment for the
/// explicit-loop discipline that replaces predicate waits.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  /// Atomically releases `lock`, blocks, and re-acquires before returning.
  /// Spurious wakeups happen; always wait in a condition loop.
  void wait(MutexLock& lock) { cv_.wait(lock); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace mts
