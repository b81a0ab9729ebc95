// Fixed-size thread pool for the experiment layer.
//
// Design goals, in order: determinism, simplicity, zero surprises.
//   * Fixed worker count, no work stealing: a parallel_for hands out loop
//     indices from one atomic counter, so scheduling never affects which
//     task runs — only *when*.  Results must be written to per-index slots
//     and reduced in index order by the caller; then any thread count
//     (including 1, which runs inline on the calling thread) produces
//     bit-identical output.
//   * The calling thread participates as a worker, so a pool of size N uses
//     exactly N threads (N-1 workers + the caller) and a size-1 pool is a
//     plain serial loop with no synchronization at all.
//   * The first exception thrown by any task is captured and rethrown on
//     the calling thread after the loop finishes draining.
//
// Thread count resolution: `set_num_threads()` override if set, else the
// MTS_THREADS environment variable, else std::thread::hardware_concurrency.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/annotations.hpp"
#include "core/mutex.hpp"

namespace mts {

class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers (the caller is the last worker).
  /// `num_threads` must be >= 1.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t num_threads() const { return workers_.size() + 1; }

  /// Runs fn(i) for every i in [0, n), distributing indices across the pool,
  /// and blocks until all calls finish.  The first exception any call throws
  /// is rethrown here (the remaining indices still drain, un-run).  Nested
  /// use — calling parallel_for from inside a task — is a precondition
  /// violation: the pool is fixed-size, so nesting would deadlock.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn)
      MTS_EXCLUDES(submit_mutex_, mutex_);

 private:
  struct Job {
    std::size_t n = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    double submit_s = 0.0;  // metrics epoch timestamp; 0 when metrics are off
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};  // set once error is captured
    // The analysis cannot name the owning pool's mutex_ from a nested
    // struct, so these two carry the guard as a comment: both are written
    // only with ThreadPool::mutex_ held (worker registration in
    // worker_loop, error capture in run_job) and read by the caller after
    // the work_done_ wait under the same lock.
    std::size_t remaining_workers = 0;  // guarded by ThreadPool::mutex_
    std::exception_ptr error;           // first failure, guarded by ThreadPool::mutex_
  };

  void worker_loop() MTS_EXCLUDES(mutex_);
  void run_job(Job& job) MTS_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  Mutex submit_mutex_;  // serializes concurrent top-level parallel_for
  Mutex mutex_;
  CondVar work_ready_;
  CondVar work_done_;
  Job* job_ MTS_GUARDED_BY(mutex_) = nullptr;
  std::uint64_t generation_ MTS_GUARDED_BY(mutex_) = 0;
  bool stop_ MTS_GUARDED_BY(mutex_) = false;
};

/// FIFO queue with dedicated workers, for latency-oriented service work
/// (the routed daemon) as opposed to parallel_for's throughput loops.
/// Tasks receive their worker index so callers can keep per-worker state
/// (e.g. one net::QueryEngine per worker) without any sharing.  Tasks must
/// not throw; one that does is swallowed and its quarantine taxonomy
/// recorded (a service must survive a bad request).
///
/// The queue is unbounded by default; a `max_queued` bound turns submission
/// into admission control — try_submit() reports QueueFull instead of
/// growing the backlog, and the caller decides how to shed.
class TaskQueue {
 public:
  using Task = std::function<void(std::size_t worker)>;

  /// Why try_submit() did or did not accept a task.  Distinct outcomes on
  /// purpose: a full queue is a load signal (shed and keep serving) while a
  /// closed queue is a lifecycle signal (shut down).
  enum class SubmitResult : std::uint8_t { Accepted, QueueFull, Closed };

  /// Spawns `num_workers` dedicated threads (>= 1 required).  Unlike
  /// ThreadPool, the constructing thread never runs tasks.  `max_queued`
  /// caps tasks waiting in the queue (not yet running); 0 = unbounded.
  explicit TaskQueue(std::size_t num_workers, std::size_t max_queued = 0);

  /// close() + join.
  ~TaskQueue();

  TaskQueue(const TaskQueue&) = delete;
  TaskQueue& operator=(const TaskQueue&) = delete;

  /// Enqueues a task unless the queue is closed or at its bound.
  [[nodiscard]] SubmitResult try_submit(Task task) MTS_EXCLUDES(mutex_);

  /// Stops accepting new tasks, waits for every already-queued task to
  /// finish, and joins the workers.  Idempotent; safe to call once from
  /// any single thread while others are still submitting.
  void close() MTS_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t num_workers() const { return workers_.size(); }

  /// Total tasks executed so far.
  [[nodiscard]] std::uint64_t tasks_run() const MTS_EXCLUDES(mutex_);

  /// Taxonomy strings ("<category>: <message>") of tasks that threw.
  [[nodiscard]] std::vector<std::string> task_errors() const MTS_EXCLUDES(mutex_);

 private:
  void worker_loop(std::size_t worker) MTS_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  const std::size_t max_queued_;  // 0 = unbounded
  mutable Mutex mutex_;
  CondVar work_ready_;
  std::deque<Task> queue_ MTS_GUARDED_BY(mutex_);
  bool closed_ MTS_GUARDED_BY(mutex_) = false;
  bool joined_ MTS_GUARDED_BY(mutex_) = false;
  std::uint64_t tasks_run_ MTS_GUARDED_BY(mutex_) = 0;
  std::vector<std::string> task_errors_ MTS_GUARDED_BY(mutex_);
};

/// Thread count the global pool will use: the set_num_threads() override if
/// set, else MTS_THREADS, else hardware concurrency (min 1).
std::size_t num_threads();

/// How the global thread count was resolved.  `requested` is the explicit
/// ask — the set_num_threads() override if set, else a positive MTS_THREADS
/// value, else 0 (nothing requested).  `effective` is what parallel_for
/// will actually use (falls back to hardware concurrency).
struct ThreadResolution {
  std::size_t requested = 0;
  std::size_t effective = 1;
};
ThreadResolution thread_resolution();

/// Overrides the global thread count (0 = back to MTS_THREADS/hardware).
/// Takes effect on the next global parallel_for; not thread-safe against
/// concurrent top-level parallel_for calls.
void set_num_threads(std::size_t n);

/// Runs fn(i) for i in [0, n) on the lazily-created global pool.  With one
/// thread (or n <= 1) this is an inline serial loop.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace mts
