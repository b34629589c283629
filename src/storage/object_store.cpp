#include "storage/object_store.hpp"

#include <cassert>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/format.hpp"

namespace mrts::storage {

ObjectStore::ObjectStore(std::unique_ptr<StorageBackend> backend,
                         util::TimeAccumulator* disk_time,
                         ObjectStoreOptions options)
    : backend_(std::move(backend)),
      disk_time_(disk_time),
      options_(options),
      queue_gauge_(&obs::MetricsRegistry::global().gauge(
          util::format("storage.io_queue.node{}", options.trace_track))),
      m_lat_store_(&obs::MetricsRegistry::global().histogram(
          "storage.op_latency_us.store")),
      m_lat_load_(&obs::MetricsRegistry::global().histogram(
          "storage.op_latency_us.load")),
      m_lat_erase_(&obs::MetricsRegistry::global().histogram(
          "storage.op_latency_us.erase")) {
  assert(backend_ != nullptr);
  if (!options_.synchronous) {
    io_thread_ = std::thread([this] { io_loop(); });
  }
}

ObjectStore::~ObjectStore() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (io_thread_.joinable()) io_thread_.join();
}

void ObjectStore::store_async(ObjectKey key, std::vector<std::byte> bytes,
                              StoreCallback done) {
  Request req{.is_store = true,
              .key = key,
              .bytes = std::move(bytes),
              .store_done = std::move(done),
              .load_done = {}};
  if (options_.synchronous) {
    execute(req);
    return;
  }
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(req));
    sample_queue_depth_locked();
  }
  cv_.notify_one();
}

void ObjectStore::load_async(ObjectKey key, LoadCallback done) {
  Request req{.is_store = false,
              .key = key,
              .bytes = {},
              .store_done = {},
              .load_done = std::move(done)};
  if (options_.synchronous) {
    execute(req);
    return;
  }
  {
    std::lock_guard lock(mutex_);
    // Loads are served before stores when both are queued: a pending load
    // blocks a message handler, a pending store only delays reclamation.
    queue_.push_front(std::move(req));
    sample_queue_depth_locked();
  }
  cv_.notify_one();
}

void ObjectStore::backoff(ObjectKey key, int attempt) {
  retries_.fetch_add(1, std::memory_order_relaxed);
  const auto delay = options_.retry.delay_for(key, attempt);
  if (delay.count() <= 0) return;
  backoff_us_.fetch_add(static_cast<std::uint64_t>(delay.count()),
                        std::memory_order_relaxed);
  // Synchronous mode runs on the deterministic driver's virtual clock (or
  // over a bare MemStore, which never fails transiently): account for the
  // delay but never sleep, so replay stays byte-identical.
  if (!options_.synchronous) std::this_thread::sleep_for(delay);
}

template <typename Op>
util::Status ObjectStore::run_retrying(ObjectKey key, Op&& op) {
  const util::WallTimer timer;
  util::Status status;
  for (int attempt = 0;; ++attempt) {
    status = op();
    if (!RetryPolicy::retryable(status.code())) return status;
    if (attempt >= options_.retry.max_retries) return status;
    if (!options_.synchronous && options_.retry.deadline.count() > 0 &&
        timer.elapsed() >= options_.retry.deadline) {
      return status;
    }
    backoff(key, attempt + 1);
  }
}

util::Status ObjectStore::store_sync(ObjectKey key,
                                     std::span<const std::byte> bytes) {
  return run_retrying(key, [&] { return backend_->store(key, bytes); });
}

util::Result<std::vector<std::byte>> ObjectStore::load_sync(ObjectKey key) {
  util::Result<std::vector<std::byte>> result =
      util::Status(util::StatusCode::kUnavailable, "not attempted");
  run_retrying(key, [&] {
    result = backend_->load(key);
    return result.status();
  });
  return result;
}

util::Status ObjectStore::erase(ObjectKey key) {
  // Same treatment as loads and stores: retried, charged, traced, counted in
  // BackendStats (the backend bumps erase_ops).
  obs::ChargedSpan span(obs::Cat::kDisk, "erase",
                        static_cast<std::uint16_t>(options_.trace_track),
                        disk_time_);
  const util::WallTimer op_timer;
  const util::Status status = run_retrying(key, [&] { return backend_->erase(key); });
  m_lat_erase_->observe(
      static_cast<std::uint64_t>(op_timer.elapsed().count()) / 1000);
  return status;
}

void ObjectStore::drain() {
  std::unique_lock lock(mutex_);
  drained_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

std::size_t ObjectStore::pending() const {
  std::lock_guard lock(mutex_);
  return queue_.size() + in_flight_;
}

std::uint64_t ObjectStore::retries_performed() const {
  return retries_.load(std::memory_order_relaxed);
}

std::uint64_t ObjectStore::backoff_microseconds() const {
  return backoff_us_.load(std::memory_order_relaxed);
}

void ObjectStore::io_loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stop_) return;
      continue;
    }
    Request req = std::move(queue_.front());
    queue_.pop_front();
    ++in_flight_;
    lock.unlock();
    execute(req);
    lock.lock();
    --in_flight_;
    sample_queue_depth_locked();
    if (queue_.empty() && in_flight_ == 0) drained_cv_.notify_all();
  }
}

void ObjectStore::sample_queue_depth_locked() {
  const auto depth = queue_.size() + in_flight_;
  queue_gauge_->set(static_cast<double>(depth));
  obs::TraceRecorder::global().counter(
      "io.queue", static_cast<std::uint16_t>(options_.trace_track), depth);
}

void ObjectStore::execute(Request& req) {
  // One pair of clock reads feeds both disk_time_ and the trace span, so the
  // span-derived disk busy time matches the NodeCounters number exactly.
  // Closed before the completion callback: the callback belongs to the caller
  // (deserialize time is charged by the runtime as computation).
  obs::ChargedSpan span(obs::Cat::kDisk, req.is_store ? "store" : "load",
                        static_cast<std::uint16_t>(options_.trace_track),
                        disk_time_);
  if (req.is_store) {
    // Move-aware store: a backend that can adopt the buffer does so on
    // success only — per the StorageBackend contract a failed attempt
    // leaves req.bytes intact, which both the retry loop here and the
    // failure hand-back below rely on.
    const util::WallTimer op_timer;
    const util::Status status = run_retrying(
        req.key, [&] { return backend_->store(req.key, std::move(req.bytes)); });
    m_lat_store_->observe(
        static_cast<std::uint64_t>(op_timer.elapsed().count()) / 1000);
    span.close();
    if (req.store_done) {
      // Failed stores hand the payload back: the caller holds the object's
      // only serialized copy and decides how to recover it.
      req.store_done(status, status.is_ok() ? std::vector<std::byte>{}
                                            : std::move(req.bytes));
    }
  } else {
    util::Result<std::vector<std::byte>> result =
        util::Status(util::StatusCode::kUnavailable, "not attempted");
    const util::WallTimer op_timer;
    run_retrying(req.key, [&] {
      result = backend_->load(req.key);
      return result.status();
    });
    m_lat_load_->observe(
        static_cast<std::uint64_t>(op_timer.elapsed().count()) / 1000);
    span.close();
    if (req.load_done) req.load_done(std::move(result));
  }
}

}  // namespace mrts::storage
