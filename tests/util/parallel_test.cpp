#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <set>
#include <stdexcept>
#include <vector>

namespace sbst::util {
namespace {

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(hardware_threads(), 1u);
}

TEST(ThreadPool, ZeroSelectsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), hardware_threads());
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  for (unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    constexpr std::size_t kTasks = 257;  // not a multiple of any pool size
    std::vector<std::atomic<int>> hits(kTasks);
    pool.run(kTasks, [&](std::size_t task, unsigned) { ++hits[task]; });
    for (std::size_t i = 0; i < kTasks; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "task " << i << ", " << threads
                                   << " threads";
    }
  }
}

TEST(ThreadPool, EmptyTaskListReturnsImmediately) {
  ThreadPool pool(4);
  bool called = false;
  pool.run(0, [&](std::size_t, unsigned) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, WorkerIndexInRange) {
  ThreadPool pool(3);
  std::atomic<bool> ok{true};
  pool.run(100, [&](std::size_t, unsigned worker) {
    if (worker >= pool.size()) ok = false;
  });
  EXPECT_TRUE(ok);
}

TEST(ThreadPool, ExceptionPropagatesFromWorker) {
  for (unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.run(50,
                 [](std::size_t task, unsigned) {
                   if (task == 17) throw std::runtime_error("task 17 failed");
                 }),
        std::runtime_error)
        << threads << " threads";
  }
}

TEST(ThreadPool, ReusableAfterException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run(8,
                        [](std::size_t, unsigned) {
                          throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  // The pool must still run subsequent jobs to completion.
  std::atomic<std::size_t> count{0};
  pool.run(64, [&](std::size_t, unsigned) { ++count; });
  EXPECT_EQ(count.load(), 64u);
}

TEST(ThreadPool, ReusableAcrossManyRuns) {
  ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.run(10, [&](std::size_t, unsigned) { ++total; });
  }
  EXPECT_EQ(total.load(), 500u);
}

TEST(ThreadPool, ReuseManyRunsNoRace) {
  // Back-to-back runs with tiny task counts: a worker woken for one run
  // must be out of it before the next run resets the job, so every task
  // of every run executes exactly once, inside its own run, through its
  // own closure (destroyed when the run returns).
  ThreadPool pool(4);
  std::atomic<int> current{-1};
  std::atomic<int> strays{0};
  for (int run = 0; run < 1000; ++run) {
    const std::size_t tasks = static_cast<std::size_t>(run % 8);
    std::vector<std::atomic<int>> hits(tasks);
    current.store(run);
    const std::function<void(std::size_t, unsigned)> fn =
        [&hits, &current, &strays, run](std::size_t task, unsigned) {
          if (current.load() != run) ++strays;
          ++hits[task];
        };
    pool.run(tasks, fn);
    for (std::size_t i = 0; i < tasks; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "run " << run << " task " << i;
    }
  }
  EXPECT_EQ(strays.load(), 0);
}

TEST(ThreadPool, CancelSetBeforeRunExecutesNothing) {
  for (unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    std::atomic<bool> cancel{true};
    std::atomic<std::size_t> executed{0};
    pool.run(
        100, [&](std::size_t, unsigned) { ++executed; }, &cancel);
    EXPECT_EQ(executed.load(), 0u) << threads << " threads";
  }
}

TEST(ThreadPool, CancelMidRunDrainsInFlightTasksOnly) {
  for (unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    std::atomic<bool> cancel{false};
    std::atomic<std::size_t> executed{0};
    constexpr std::size_t kTasks = 1000;
    pool.run(
        kTasks,
        [&](std::size_t task, unsigned) {
          ++executed;
          if (task == 5) cancel.store(true);
        },
        &cancel);
    // run() returned normally; after the flag no new task started, so at
    // most the in-flight tasks (one per worker) completed on top.
    EXPECT_GE(executed.load(), 1u) << threads << " threads";
    EXPECT_LT(executed.load(), kTasks) << threads << " threads";
  }
}

TEST(ThreadPool, SerialCancelIsExactlyBounded) {
  // With one worker the drain point is deterministic: the task that sets
  // the flag is the last one to run.
  ThreadPool pool(1);
  std::atomic<bool> cancel{false};
  std::size_t executed = 0;
  pool.run(
      100,
      [&](std::size_t task, unsigned) {
        ++executed;
        if (task == 6) cancel.store(true);
      },
      &cancel);
  EXPECT_EQ(executed, 7u);
}

TEST(ThreadPool, ReusableAfterCancel) {
  ThreadPool pool(4);
  std::atomic<bool> cancel{true};
  pool.run(16, [](std::size_t, unsigned) {}, &cancel);
  std::atomic<std::size_t> count{0};
  pool.run(64, [&](std::size_t, unsigned) { ++count; });
  EXPECT_EQ(count.load(), 64u);
}

TEST(ThreadPool, PerWorkerStateStaysDisjoint) {
  // Each worker index owns a scratch slot; concurrent tasks must never
  // observe another worker mutating their slot mid-task.
  ThreadPool pool(4);
  std::vector<int> scratch(pool.size(), 0);
  std::atomic<bool> torn{false};
  pool.run(200, [&](std::size_t, unsigned w) {
    const int before = ++scratch[w];
    if (scratch[w] != before) torn = true;
  });
  EXPECT_FALSE(torn);
  std::size_t sum = 0;
  for (int s : scratch) sum += static_cast<std::size_t>(s);
  EXPECT_EQ(sum, 200u);
}

}  // namespace
}  // namespace sbst::util
