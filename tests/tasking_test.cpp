// Unit tests for the computing layer: both pool backends must satisfy the
// same contract (parameterized suite), including nested fork/join.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "tasking/task_pool.hpp"

namespace mrts::tasking {
namespace {

class PoolContract : public ::testing::TestWithParam<PoolBackend> {
 protected:
  std::unique_ptr<TaskPool> make(std::size_t workers = 4) {
    return make_pool(GetParam(), workers);
  }
};

TEST_P(PoolContract, RunsSubmittedTasks) {
  auto pool = make();
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool->submit([&] { count.fetch_add(1); });
  }
  pool->wait_idle();
  EXPECT_EQ(count.load(), 100);
  EXPECT_GE(pool->tasks_executed(), 100u);
}

TEST_P(PoolContract, WaitIdleOnEmptyPoolReturns) {
  auto pool = make();
  pool->wait_idle();  // must not hang
  SUCCEED();
}

TEST_P(PoolContract, TaskGroupJoinsChildren) {
  auto pool = make(2);
  std::atomic<int> sum{0};
  {
    TaskGroup group(*pool);
    for (int i = 1; i <= 50; ++i) {
      group.run([&sum, i] { sum.fetch_add(i); });
    }
    group.wait();
    EXPECT_EQ(sum.load(), 50 * 51 / 2);
  }
}

TEST_P(PoolContract, NestedSpawnDoesNotDeadlock) {
  // A task spawns children and waits for them inside the pool — with one
  // worker this deadlocks unless wait() helps execute pending tasks.
  auto pool = make(1);
  std::atomic<int> leaves{0};
  TaskGroup outer(*pool);
  for (int i = 0; i < 4; ++i) {
    outer.run([&] {
      TaskGroup inner(*pool);
      for (int j = 0; j < 4; ++j) {
        inner.run([&] { leaves.fetch_add(1); });
      }
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(leaves.load(), 16);
}

TEST_P(PoolContract, DeepRecursiveSpawn) {
  auto pool = make(2);
  std::atomic<int> total{0};
  // Recursive binary fan-out to depth 7 = 127 tasks.
  std::function<void(int)> spawn = [&](int depth) {
    total.fetch_add(1);
    if (depth == 0) return;
    TaskGroup g(*pool);
    g.run([&, depth] { spawn(depth - 1); });
    g.run([&, depth] { spawn(depth - 1); });
    g.wait();
  };
  TaskGroup root(*pool);
  root.run([&] { spawn(6); });
  root.wait();
  EXPECT_EQ(total.load(), 127);
}

TEST_P(PoolContract, TaskGroupMayBeDestroyedAsSoonAsWaitReturns) {
  // Once wait() returns, the task that finished last must be done with the
  // group's mutex and condition variable: deleting the group right away
  // must not race with it (ASan/TSan catch a use after destroy).
  auto pool = make(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 10000; ++i) {
    auto group = std::make_unique<TaskGroup>(*pool);
    group->run([&ran] { ran.fetch_add(1, std::memory_order_acq_rel); });
    // Let a worker, not wait()'s help_one, run the task, so that its
    // completion races with the wait below.
    while (ran.load(std::memory_order_acquire) == i) {
      std::this_thread::yield();
    }
    group->wait();
    group.reset();
  }
  EXPECT_EQ(ran.load(), 10000);
}

TEST_P(PoolContract, ParallelForCoversRange) {
  auto pool = make(3);
  std::vector<int> marks(1000, 0);
  parallel_for(*pool, 0, marks.size(), 37,
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t i = lo; i < hi; ++i) marks[i] += 1;
               });
  EXPECT_EQ(std::accumulate(marks.begin(), marks.end(), 0), 1000);
  // Every element exactly once.
  for (int m : marks) EXPECT_EQ(m, 1);
}

TEST_P(PoolContract, ParallelForEmptyRange) {
  auto pool = make(2);
  bool ran = false;
  parallel_for(*pool, 5, 5, 1, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST_P(PoolContract, HelpOneFromExternalThread) {
  // A pool whose single worker is parked behind many queued tasks: an
  // external thread must be able to drain them via help_one.
  auto pool = make(1);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i) {
    pool->submit([&] { done.fetch_add(1); });
  }
  int helped = 0;
  while (pool->help_one()) ++helped;
  pool->wait_idle();
  EXPECT_EQ(done.load(), 50);
  // With a 1-core host the worker may or may not have raced us; helping is
  // only guaranteed to be possible, not to win every task.
  EXPECT_GE(helped, 0);
}

TEST_P(PoolContract, ZeroWorkerRequestClampsToOne) {
  auto pool = make(0);
  EXPECT_EQ(pool->worker_count(), 1u);
  std::atomic<int> n{0};
  pool->submit([&] { n.fetch_add(1); });
  pool->wait_idle();
  EXPECT_EQ(n.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(Backends, PoolContract,
                         ::testing::Values(PoolBackend::kWorkStealing,
                                           PoolBackend::kCentralQueue),
                         [](const auto& info) {
                           return info.param == PoolBackend::kWorkStealing
                                      ? "WorkStealing"
                                      : "CentralQueue";
                         });

TEST(PoolFactory, NamesAreDistinct) {
  EXPECT_NE(to_string(PoolBackend::kWorkStealing),
            to_string(PoolBackend::kCentralQueue));
}

}  // namespace
}  // namespace mrts::tasking
