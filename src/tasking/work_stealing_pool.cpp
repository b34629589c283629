#include "tasking/work_stealing_pool.hpp"

#include <cassert>

#include "util/rng.hpp"

namespace mrts::tasking {
namespace {

// Index of the slot owned by the current thread inside its pool, or npos for
// threads that are not pool workers. One thread belongs to at most one pool
// at a time in this codebase, so a plain thread_local suffices.
thread_local std::size_t t_worker_index = static_cast<std::size_t>(-1);
thread_local const void* t_worker_pool = nullptr;

}  // namespace

WorkStealingPool::WorkStealingPool(std::size_t workers) {
  if (workers == 0) workers = 1;
  slots_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

WorkStealingPool::~WorkStealingPool() {
  {
    // Under the lock, so a worker between its predicate check and its wait
    // cannot miss the notify.
    std::lock_guard lock(idle_mutex_);
    stop_.store(true, std::memory_order_release);
  }
  idle_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void WorkStealingPool::submit(TaskFn fn) {
  assert(fn);
  unfinished_.fetch_add(1, std::memory_order_acq_rel);
  std::size_t target;
  if (t_worker_pool == this) {
    target = t_worker_index;  // child tasks stay on the spawning worker
  } else {
    target = next_slot_.fetch_add(1, std::memory_order_relaxed) % slots_.size();
  }
  {
    std::lock_guard lock(slots_[target]->mutex);
    slots_[target]->deque.push_back(std::move(fn));
  }
  {
    // Published under the idle lock, after the push: a worker that found
    // nothing either sees the count before it waits or gets the notify.
    std::lock_guard lock(idle_mutex_);
    queued_.fetch_add(1, std::memory_order_release);
  }
  idle_cv_.notify_one();
}

std::optional<TaskFn> WorkStealingPool::acquire(std::size_t self) {
  // Own deque, newest first.
  if (self < slots_.size()) {
    std::lock_guard lock(slots_[self]->mutex);
    if (!slots_[self]->deque.empty()) {
      TaskFn fn = std::move(slots_[self]->deque.back());
      slots_[self]->deque.pop_back();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return fn;
    }
  }
  // Steal: random starting victim, oldest first.
  static thread_local util::Rng rng(
      0x9E3779B97F4A7C15ull ^
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
  const std::size_t n = slots_.size();
  const std::size_t start = static_cast<std::size_t>(rng.below(n));
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t v = (start + k) % n;
    if (v == self) continue;
    std::lock_guard lock(slots_[v]->mutex);
    if (!slots_[v]->deque.empty()) {
      TaskFn fn = std::move(slots_[v]->deque.front());
      slots_[v]->deque.pop_front();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      steals_.fetch_add(1, std::memory_order_relaxed);
      return fn;
    }
  }
  return std::nullopt;
}

std::size_t WorkStealingPool::queued_tasks() const {
  std::size_t total = 0;
  for (const auto& slot : slots_) {
    std::lock_guard lock(slot->mutex);
    total += slot->deque.size();
  }
  return total;
}

void WorkStealingPool::finish_task() {
  executed_.fetch_add(1, std::memory_order_relaxed);
  if (unfinished_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard lock(idle_mutex_);
    drain_cv_.notify_all();
  }
}

void WorkStealingPool::worker_loop(std::size_t self) {
  t_worker_index = self;
  t_worker_pool = this;
  while (!stop_.load(std::memory_order_acquire)) {
    if (auto fn = acquire(self)) {
      (*fn)();
      finish_task();
      continue;
    }
    std::unique_lock lock(idle_mutex_);
    idle_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
  }
  t_worker_pool = nullptr;
}

bool WorkStealingPool::help_one() {
  const std::size_t self =
      (t_worker_pool == this) ? t_worker_index : static_cast<std::size_t>(-1);
  if (auto fn = acquire(self)) {
    (*fn)();
    finish_task();
    return true;
  }
  return false;
}

void WorkStealingPool::wait_idle() {
  while (help_one()) {
  }
  std::unique_lock lock(idle_mutex_);
  drain_cv_.wait(lock, [this] {
    return unfinished_.load(std::memory_order_acquire) == 0;
  });
}

}  // namespace mrts::tasking
