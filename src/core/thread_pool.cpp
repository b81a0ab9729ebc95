#include "core/thread_pool.hpp"

#include <atomic>
#include <memory>

#include "core/env.hpp"
#include "core/error.hpp"
#include "core/timer.hpp"
#include "obs/metrics.hpp"

namespace mts {

namespace {

// True while the current thread is executing a parallel_for task (on any
// pool).  Nested parallelism would deadlock a fixed-size pool, so it is
// rejected instead of queued.
thread_local bool t_in_parallel_task = false;

struct TaskScope {
  TaskScope() { t_in_parallel_task = true; }
  ~TaskScope() { t_in_parallel_task = false; }
};

obs::CounterId calls_counter() {
  static const obs::CounterId id =
      obs::MetricsRegistry::instance().counter("pool.parallel_for_calls");
  return id;
}

obs::CounterId tasks_counter() {
  static const obs::CounterId id =
      obs::MetricsRegistry::instance().counter("pool.tasks_executed");
  return id;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  require(num_threads >= 1, "ThreadPool: num_threads must be >= 1");
  workers_.reserve(num_threads - 1);
  for (std::size_t i = 0; i + 1 < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    Job* job = nullptr;
    {
      MutexLock lock(mutex_);
      while (!(stop_ || (job_ != nullptr && generation_ != seen_generation))) {
        work_ready_.wait(lock);
      }
      if (stop_) return;
      seen_generation = generation_;
      job = job_;
      ++job->remaining_workers;  // registered: the caller waits for us
    }
    if (job->submit_s > 0.0) {
      static const obs::HistogramId kQueueWait =
          obs::MetricsRegistry::instance().histogram("pool.queue_wait_s");
      const double wait_s =
          obs::MetricsRegistry::instance().seconds_since_epoch() - job->submit_s;
      obs::observe(kQueueWait, reported_seconds(wait_s));
    }
    run_job(*job);
    {
      MutexLock lock(mutex_);
      if (--job->remaining_workers == 0) work_done_.notify_all();
    }
  }
}

void ThreadPool::run_job(Job& job) {
  TaskScope scope;
  std::uint64_t executed = 0;
  for (;;) {
    const std::size_t i = job.next.fetch_add(1);
    if (i >= job.n) break;
    if (job.failed.load()) continue;  // drain remaining indices un-run
    try {
      (*job.fn)(i);
      ++executed;
    } catch (...) {
      MutexLock lock(mutex_);
      if (!job.error) job.error = std::current_exception();
      job.failed.store(true);
    }
  }
  obs::add(tasks_counter(), executed);
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  require(!t_in_parallel_task,
          "ThreadPool::parallel_for: nested use from inside a parallel task");
  if (n == 0) return;
  obs::add(calls_counter());
  if (workers_.empty() || n == 1) {
    // Serial fast path: no synchronization, same index order as any
    // parallel schedule's reduction order.
    TaskScope scope;
    for (std::size_t i = 0; i < n; ++i) fn(i);
    obs::add(tasks_counter(), n);
    return;
  }

  MutexLock submit_lock(submit_mutex_);  // one job at a time
  Job job;
  job.n = n;
  job.fn = &fn;
  if (obs::metrics_enabled()) {
    job.submit_s = obs::MetricsRegistry::instance().seconds_since_epoch();
  }
  {
    MutexLock lock(mutex_);
    job_ = &job;
    ++generation_;
  }
  work_ready_.notify_all();
  run_job(job);  // the calling thread is the pool's last worker
  {
    MutexLock lock(mutex_);
    while (job.remaining_workers != 0) work_done_.wait(lock);
    job_ = nullptr;
  }
  if (job.error) std::rethrow_exception(job.error);
}

// ---- TaskQueue -------------------------------------------------------------

TaskQueue::TaskQueue(std::size_t num_workers, std::size_t max_queued)
    : max_queued_(max_queued) {
  require(num_workers >= 1, "TaskQueue: num_workers must be >= 1");
  workers_.reserve(num_workers);
  for (std::size_t worker = 0; worker < num_workers; ++worker) {
    workers_.emplace_back([this, worker] { worker_loop(worker); });
  }
}

TaskQueue::~TaskQueue() { close(); }

TaskQueue::SubmitResult TaskQueue::try_submit(Task task) {
  require(static_cast<bool>(task), "TaskQueue::try_submit: empty task");
  {
    MutexLock lock(mutex_);
    if (closed_) return SubmitResult::Closed;
    if (max_queued_ != 0 && queue_.size() >= max_queued_) {
      return SubmitResult::QueueFull;
    }
    queue_.push_back(std::move(task));
  }
  work_ready_.notify_one();
  return SubmitResult::Accepted;
}

void TaskQueue::close() {
  bool join_here = false;
  {
    MutexLock lock(mutex_);
    closed_ = true;
    if (!joined_) {
      joined_ = true;
      join_here = true;
    }
  }
  work_ready_.notify_all();
  if (join_here) {
    // Workers drain the queue before exiting, so joining == draining.
    for (std::thread& worker : workers_) worker.join();
  }
}

void TaskQueue::worker_loop(std::size_t worker) {
  for (;;) {
    Task task;
    {
      MutexLock lock(mutex_);
      while (queue_.empty() && !closed_) work_ready_.wait(lock);
      if (queue_.empty()) return;  // closed and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task(worker);
      MutexLock lock(mutex_);
      ++tasks_run_;
    } catch (...) {
      MutexLock lock(mutex_);
      ++tasks_run_;
      task_errors_.push_back(current_exception_taxonomy());
    }
  }
}

std::uint64_t TaskQueue::tasks_run() const {
  MutexLock lock(mutex_);
  return tasks_run_;
}

std::vector<std::string> TaskQueue::task_errors() const {
  MutexLock lock(mutex_);
  return task_errors_;
}

// ---- Global pool -----------------------------------------------------------

namespace {

// Function-local statics rather than namespace-scope globals (lint rule
// no-mutable-global): construction is lazy and race-free, and there is no
// static-initialization-order coupling with other translation units.
std::atomic<std::size_t>& thread_override() {
  static std::atomic<std::size_t> count{0};
  return count;
}

struct GlobalPool {
  Mutex mutex;
  std::unique_ptr<ThreadPool> pool MTS_GUARDED_BY(mutex);
};

GlobalPool& global_pool() {
  static GlobalPool instance;
  return instance;
}

}  // namespace

std::size_t num_threads() {
  const std::size_t override_count = thread_override().load();
  if (override_count != 0) return override_count;
  // env_threads() rejects negative or malformed MTS_THREADS with
  // InvalidInput instead of letting a bogus value slide into the pool-size
  // cast (or silently fall back to hardware concurrency).
  const std::size_t env = env_threads();
  if (env > 0) return env;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : hardware;
}

void set_num_threads(std::size_t n) { thread_override().store(n); }

ThreadResolution thread_resolution() {
  ThreadResolution resolution;
  const std::size_t override_count = thread_override().load();
  if (override_count != 0) {
    resolution.requested = override_count;
  } else {
    resolution.requested = env_threads();
  }
  resolution.effective = num_threads();
  return resolution;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  const std::size_t threads = num_threads();
  if (threads <= 1 || n <= 1) {
    require(!t_in_parallel_task,
            "parallel_for: nested use from inside a parallel task");
    TaskScope scope;
    for (std::size_t i = 0; i < n; ++i) fn(i);
    obs::add(calls_counter());
    obs::add(tasks_counter(), n);
    return;
  }
  GlobalPool& global = global_pool();
  ThreadPool* pool = nullptr;
  {
    MutexLock lock(global.mutex);
    if (!global.pool || global.pool->num_threads() != threads) {
      global.pool = std::make_unique<ThreadPool>(threads);
    }
    pool = global.pool.get();
  }
  pool->parallel_for(n, fn);
}

}  // namespace mts
