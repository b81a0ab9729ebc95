#include "core/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace mts {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::vector<std::atomic<int>> counts(1000);
  pool.parallel_for(counts.size(), [&](std::size_t i) { counts[i].fetch_add(1); });
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SingleThreadPoolRunsInlineOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(8);
  pool.parallel_for(ids.size(), [&](std::size_t i) { ids[i] = std::this_thread::get_id(); });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(64,
                                 [](std::size_t i) {
                                   if (i == 5) throw std::runtime_error("task failed");
                                 }),
               std::runtime_error);
  // The pool must survive a failed job and run the next one normally.
  std::atomic<int> done{0};
  pool.parallel_for(32, [&](std::size_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPool, NestedUseIsAPreconditionViolation) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   4, [&](std::size_t) { pool.parallel_for(2, [](std::size_t) {}); }),
               PreconditionViolation);
}

TEST(ThreadPool, GlobalNestedUseIsAPreconditionViolation) {
  set_num_threads(2);
  EXPECT_THROW(
      parallel_for(4, [](std::size_t) { parallel_for(2, [](std::size_t) {}); }),
      PreconditionViolation);
  set_num_threads(0);
}

TEST(ThreadPool, OverrideAndEnvResolution) {
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3u);
  set_num_threads(0);  // back to MTS_THREADS / hardware
  ASSERT_EQ(setenv("MTS_THREADS", "5", 1), 0);
  EXPECT_EQ(num_threads(), 5u);
  ASSERT_EQ(unsetenv("MTS_THREADS"), 0);
  EXPECT_GE(num_threads(), 1u);  // hardware concurrency fallback, min 1
}

TEST(ThreadPool, GlobalParallelForCoversRangeAtEveryThreadCount) {
  for (std::size_t threads : {1u, 2u, 8u}) {
    set_num_threads(threads);
    std::vector<std::atomic<int>> counts(257);
    parallel_for(counts.size(), [&](std::size_t i) { counts[i].fetch_add(1); });
    for (std::size_t i = 0; i < counts.size(); ++i) {
      EXPECT_EQ(counts[i].load(), 1) << "threads " << threads << " index " << i;
    }
  }
  set_num_threads(0);
}

TEST(ThreadPool, MalformedThreadEnvIsAnErrorNotAFallback) {
  // Regression: a bad MTS_THREADS used to fall back silently (and a
  // negative one flowed into the pool-size cast).  num_threads() now goes
  // through env_threads(), which rejects with the offending value.
  ASSERT_EQ(setenv("MTS_THREADS", "-3", 1), 0);
  set_num_threads(0);
  EXPECT_THROW(num_threads(), InvalidInput);
  ASSERT_EQ(setenv("MTS_THREADS", "lots", 1), 0);
  EXPECT_THROW(num_threads(), InvalidInput);
  ASSERT_EQ(unsetenv("MTS_THREADS"), 0);
  EXPECT_GE(num_threads(), 1u);
}

TEST(TaskQueue, RunsSubmittedTasksOnWorkerThreads) {
  TaskQueue queue(3);
  EXPECT_EQ(queue.num_workers(), 3u);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> ran{0};
  std::atomic<bool> on_caller{false};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(queue.try_submit([&](std::size_t worker) {
      EXPECT_LT(worker, 3u);
      if (std::this_thread::get_id() == caller) on_caller.store(true);
      ran.fetch_add(1);
    }),
              TaskQueue::SubmitResult::Accepted);
  }
  queue.close();
  EXPECT_EQ(ran.load(), 100);
  // Unlike ThreadPool(1), TaskQueue workers are always dedicated threads:
  // the submitting thread (a connection reader) must never run queries.
  EXPECT_FALSE(on_caller.load());
  EXPECT_EQ(queue.tasks_run(), 100u);
}

TEST(TaskQueue, CloseDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    TaskQueue queue(2);
    for (int i = 0; i < 500; ++i) {
      ASSERT_EQ(queue.try_submit([&](std::size_t) { ran.fetch_add(1); }),
                TaskQueue::SubmitResult::Accepted);
    }
    // Destructor closes; every already-submitted task must still run.
  }
  EXPECT_EQ(ran.load(), 500);
}

TEST(TaskQueue, SubmitAfterCloseIsRefused) {
  TaskQueue queue(1);
  queue.close();
  EXPECT_EQ(queue.try_submit([](std::size_t) {}), TaskQueue::SubmitResult::Closed);
  queue.close();  // idempotent
}

TEST(TaskQueue, BoundedQueueRefusesExcessButRunsEveryAcceptedTask) {
  std::atomic<int> ran{0};
  {
    TaskQueue queue(1, 2);
    // Park the single worker so submissions pile up in the queue itself;
    // wait until it has actually dequeued the parking task, or the bound
    // would count it too.
    std::promise<void> parked;
    std::promise<void> gate;
    std::shared_future<void> opened = gate.get_future().share();
    ASSERT_EQ(queue.try_submit([&, opened](std::size_t) {
      parked.set_value();
      opened.wait();
      ran.fetch_add(1);
    }),
              TaskQueue::SubmitResult::Accepted);
    parked.get_future().wait();
    // The bound counts queued (not executing) tasks: two fit, a third is
    // refused with QueueFull -- never silently dropped, never blocking.
    ASSERT_EQ(queue.try_submit([&](std::size_t) { ran.fetch_add(1); }),
              TaskQueue::SubmitResult::Accepted);
    ASSERT_EQ(queue.try_submit([&](std::size_t) { ran.fetch_add(1); }),
              TaskQueue::SubmitResult::Accepted);
    EXPECT_EQ(queue.try_submit([&](std::size_t) { ran.fetch_add(1); }),
              TaskQueue::SubmitResult::QueueFull);
    gate.set_value();
    // Destructor closes and drains every accepted task.
  }
  EXPECT_EQ(ran.load(), 3);
}

TEST(TaskQueue, TrySubmitAfterCloseReportsClosed) {
  TaskQueue queue(1, 4);
  queue.close();
  EXPECT_EQ(queue.try_submit([](std::size_t) {}), TaskQueue::SubmitResult::Closed);
}

TEST(TaskQueue, UnboundedQueueNeverReportsFull) {
  TaskQueue queue(2);  // max_queued = 0: the pre-overload default
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(queue.try_submit([](std::size_t) {}), TaskQueue::SubmitResult::Accepted);
  }
  queue.close();
  EXPECT_EQ(queue.tasks_run(), 2000u);
}

TEST(TaskQueue, TaskExceptionsAreQuarantinedAsTaxonomy) {
  TaskQueue queue(2);
  std::atomic<int> ran{0};
  ASSERT_EQ(queue.try_submit([](std::size_t) { throw InvalidInput("bad request 7"); }),
            TaskQueue::SubmitResult::Accepted);
  ASSERT_EQ(queue.try_submit([&](std::size_t) { ran.fetch_add(1); }),
            TaskQueue::SubmitResult::Accepted);
  queue.close();
  // The throwing task neither killed its worker nor leaked the exception.
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(queue.tasks_run(), 2u);
  const std::vector<std::string> errors = queue.task_errors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("invalid-input"), std::string::npos) << errors[0];
  EXPECT_NE(errors[0].find("bad request 7"), std::string::npos) << errors[0];
}

TEST(ThreadPool, PerIndexResultsIdenticalAcrossThreadCounts) {
  // The determinism contract: per-index output slots depend only on the
  // index, never on which thread ran it or in what order.
  const auto run = [](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<std::uint64_t> out(200);
    pool.parallel_for(out.size(), [&](std::size_t i) {
      Rng rng(derive_seed(7, {i}));
      out[i] = rng();
    });
    return out;
  };
  const auto serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

}  // namespace
}  // namespace mts
