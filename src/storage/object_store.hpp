#pragma once

// Asynchronous object store: the storage layer's non-blocking load/store
// interface (paper §II.D). A dedicated I/O thread drains a request queue so
// serialization traffic overlaps with computation and communication — the
// property measured as "Overlap" in the paper's Tables IV-VI. Busy time of
// the I/O thread is charged to a TimeAccumulator supplied by the runtime.
// A synchronous store (ObjectStoreOptions::synchronous) has no I/O thread
// and serves the same interface inline.

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "storage/backend.hpp"
#include "storage/retry_policy.hpp"
#include "util/timer.hpp"

namespace mrts::obs {
class Gauge;
class HistogramMetric;
}  // namespace mrts::obs

namespace mrts::storage {

/// Completion of a store. On failure the payload is handed back (moved) so
/// the caller still owns a copy of the object's only on-disk representation
/// and can recover (reinstall in core, re-spill elsewhere); empty on success.
using StoreCallback =
    std::function<void(util::Status, std::vector<std::byte>)>;
using LoadCallback = std::function<void(util::Result<std::vector<std::byte>>)>;

struct ObjectStoreOptions {
  /// Transient (kUnavailable) backend failures are retried under this policy
  /// before the error is propagated to the callback.
  RetryPolicy retry{};
  /// Execute requests inline on the calling thread instead of on the I/O
  /// thread (no thread is spawned). Callbacks run before store_async /
  /// load_async return. Used by the deterministic chaos driver, where I/O
  /// completion order must be a pure function of the control schedule, and
  /// for a backend with no device time to overlap (a cluster node whose
  /// spill stack is a bare MemStore). Retry backoff is then virtual time:
  /// nothing sleeps.
  bool synchronous = false;
  /// Trace track (node id) that this store's spans and queue-depth samples
  /// are attributed to.
  std::uint32_t trace_track = 0;
};

class ObjectStore {
 public:
  /// `disk_time` may be null; when set, I/O busy intervals are charged to it.
  ObjectStore(std::unique_ptr<StorageBackend> backend,
              util::TimeAccumulator* disk_time = nullptr,
              ObjectStoreOptions options = {});
  ~ObjectStore();

  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  /// Enqueues a write; `done` runs on the I/O thread after completion.
  void store_async(ObjectKey key, std::vector<std::byte> bytes,
                   StoreCallback done = {});

  /// Enqueues a read; `done` runs on the I/O thread with the result.
  void load_async(ObjectKey key, LoadCallback done);

  /// Synchronous helpers (execute on the calling thread, still retried).
  util::Status store_sync(ObjectKey key, std::span<const std::byte> bytes);
  util::Result<std::vector<std::byte>> load_sync(ObjectKey key);

  util::Status erase(ObjectKey key);

  /// Blocks until every queued request has completed.
  void drain();

  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] const StorageBackend& backend() const { return *backend_; }
  [[nodiscard]] std::uint64_t retries_performed() const;
  /// Total backoff computed by the retry policy, in microseconds. In
  /// synchronous (deterministic) mode this is virtual time only — nothing
  /// actually slept.
  [[nodiscard]] std::uint64_t backoff_microseconds() const;

 private:
  struct Request {
    bool is_store;
    ObjectKey key;
    std::vector<std::byte> bytes;  // store payload
    StoreCallback store_done;
    LoadCallback load_done;
  };

  void io_loop();
  void execute(Request& req);
  /// Sleeps (real clock) or accumulates (virtual clock) the policy delay
  /// before retry number `attempt` on `key`.
  void backoff(ObjectKey key, int attempt);
  /// Runs `op` under the retry policy; every retry site funnels through here.
  template <typename Op>
  util::Status run_retrying(ObjectKey key, Op&& op);
  /// Records the current queue depth (queued + in flight); call under mutex_.
  void sample_queue_depth_locked();

  std::unique_ptr<StorageBackend> backend_;
  util::TimeAccumulator* disk_time_;
  ObjectStoreOptions options_;
  obs::Gauge* queue_gauge_;  // registry-owned, process lifetime
  // Per-op wall-latency distributions (storage.op_latency_us.{store,load,
  // erase}), charged in the same path as the disk span so the Tables IV-VI
  // breakdowns can show device slowness, not just op counts. Wall time is
  // obs-only: health scoring reads the deterministic BackendStats
  // virtual_*_latency_us fields instead.
  obs::HistogramMetric* m_lat_store_;
  obs::HistogramMetric* m_lat_load_;
  obs::HistogramMetric* m_lat_erase_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable drained_cv_;
  std::deque<Request> queue_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
  // Atomics, not mutex_-guarded: retries are counted on the I/O hot path and
  // must not contend with the request queue.
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> backoff_us_{0};

  std::thread io_thread_;
};

}  // namespace mrts::storage
