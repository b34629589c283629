#include "tasking/task_pool.hpp"

#include <chrono>

#include "tasking/central_queue_pool.hpp"
#include "tasking/work_stealing_pool.hpp"

namespace mrts::tasking {

std::string_view to_string(PoolBackend b) {
  switch (b) {
    case PoolBackend::kWorkStealing: return "work-stealing";
    case PoolBackend::kCentralQueue: return "central-queue";
  }
  return "?";
}

std::unique_ptr<TaskPool> make_pool(PoolBackend backend, std::size_t workers) {
  switch (backend) {
    case PoolBackend::kWorkStealing:
      return std::make_unique<WorkStealingPool>(workers);
    case PoolBackend::kCentralQueue:
      return std::make_unique<CentralQueuePool>(workers);
  }
  return nullptr;
}

void TaskGroup::run(TaskFn fn) {
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  pool_.submit([this, fn = std::move(fn)] {
    fn();
    // Decrement under the lock: wait() takes mutex_ after it sees zero, so
    // the finishing task is done with mutex_ and cv_ before wait() returns
    // and the group can be destroyed.
    std::lock_guard lock(mutex_);
    if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      cv_.notify_all();
    }
  });
}

void TaskGroup::wait() {
  // Help drain the pool while our children are outstanding; fall back to a
  // short timed wait when no task is ready (a child may be running on
  // another worker).
  while (outstanding_.load(std::memory_order_acquire) != 0) {
    if (pool_.help_one()) continue;
    std::unique_lock lock(mutex_);
    cv_.wait_for(lock, std::chrono::microseconds(200), [this] {
      return outstanding_.load(std::memory_order_acquire) == 0;
    });
  }
  // The last task may still hold mutex_ right after its decrement; wait for
  // it to let go.
  std::lock_guard lock(mutex_);
}

}  // namespace mrts::tasking
