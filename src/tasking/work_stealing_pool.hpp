#pragma once

// TBB-like backend: each worker owns a deque; workers pop newest from their
// own deque (depth-first, cache-friendly) and steal oldest from a random
// victim (breadth-first, load-spreading). External submissions are sprayed
// round-robin across worker deques.

#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "tasking/task_pool.hpp"

namespace mrts::tasking {

class WorkStealingPool final : public TaskPool {
 public:
  explicit WorkStealingPool(std::size_t workers);
  ~WorkStealingPool() override;

  void submit(TaskFn fn) override;
  bool help_one() override;
  [[nodiscard]] std::size_t worker_count() const override {
    return workers_.size();
  }
  void wait_idle() override;
  [[nodiscard]] std::uint64_t tasks_executed() const override {
    return executed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t queued_tasks() const override;
  [[nodiscard]] std::uint64_t steals() const override {
    return steals_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::mutex mutex;
    std::deque<TaskFn> deque;
  };

  void worker_loop(std::size_t self);
  /// Pops from own back (if `self` valid) or steals from another slot's
  /// front. Returns nullopt if everything is empty.
  std::optional<TaskFn> acquire(std::size_t self);
  void finish_task();

  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::thread> workers_;

  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;   // wakes sleeping workers
  std::condition_variable drain_cv_;  // wakes wait_idle
  std::atomic<std::size_t> unfinished_{0};
  /// Tasks sitting in some deque. Raised under idle_mutex_ after the push
  /// and lowered by whoever pops, so a pop racing ahead of its submit can
  /// take it below zero for a moment; idle workers sleep while it is <= 0.
  std::atomic<std::int64_t> queued_{0};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::size_t> next_slot_{0};
};

}  // namespace mrts::tasking
