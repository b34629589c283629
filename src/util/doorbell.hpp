#pragma once

// Doorbell: a sticky wake-up flag for one waiting thread. ring() sets the
// flag and wakes the waiter; wait_for() returns at once if the flag is
// already set, and clears it on return. Because the flag is sticky, a ring
// that lands after the waiter last looked for work but before it blocks is
// kept, not lost.

#include <chrono>
#include <condition_variable>
#include <mutex>

namespace mrts::util {

class Doorbell {
 public:
  /// Safe from any thread. Everything the ringer wrote before ring() is
  /// visible to the waiter once its wait_for() returns.
  void ring() {
    {
      std::lock_guard lock(mutex_);
      rung_ = true;
    }
    cv_.notify_one();
  }

  /// Blocks until rung or until `timeout` passes, then clears the flag.
  void wait_for(std::chrono::microseconds timeout) {
    std::unique_lock lock(mutex_);
    cv_.wait_for(lock, timeout, [this] { return rung_; });
    rung_ = false;
  }

 private:
  std::mutex mutex_;
  bool rung_ = false;  // guarded by mutex_
  std::condition_variable cv_;
};

}  // namespace mrts::util
