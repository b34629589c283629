#pragma once

// The storage layer's one device-cost model: a decorator that prices every
// store and load of an inner backend (FileStore, MemStore, a remote-memory
// view) as
//
//   (access_latency + bytes / bandwidth) x inflation(op)
//
// and charges it, truncated to microseconds, into BackendStats'
// virtual_*_latency_us fields. `op` is the device's own op index: every
// store and load that reaches it counts, erase does not. inflation(op) is
// the first of the node's slow windows that contains op, else 1: a device
// that still works but is slow, the storage half of a gray failure. A load
// is priced by the bytes it returned, or 0 when it failed.
//
// One clock rule, the one ObjectStore's retry backoff follows, and by which
// the cluster sets `sleep`: a device on a node whose storage runs on an I/O
// thread also sleeps each op's cost, so modeled disk time really overlaps
// computation (Tables IV-VI); a device on a synchronous node (the
// deterministic driver) only charges it, so a run replays byte for byte and
// HealthMonitor still sees the slow device.

#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "storage/backend.hpp"

namespace mrts::storage {

/// Ops [begin_op, end_op) of node `node`'s device cost `inflation` times
/// the model's price.
struct SlowWindow {
  std::uint32_t node = 0;
  std::uint64_t begin_op = 0;
  std::uint64_t end_op = std::numeric_limits<std::uint64_t>::max();
  std::uint32_t inflation = 16;
};

struct DeviceModel {
  /// Per-operation fixed cost (seek + controller, or a network round trip).
  std::chrono::microseconds access_latency{0};
  /// Sustained transfer rate; <= 0 disables the transfer term.
  double bandwidth_bytes_per_sec = 0.0;
  /// Slow windows of every node; a device applies only its own node's.
  std::vector<SlowWindow> slow_windows{};

  /// True when the model prices an op at all, i.e. a device is worth
  /// stacking.
  [[nodiscard]] bool priced() const {
    return access_latency.count() > 0 || bandwidth_bytes_per_sec > 0.0;
  }
  /// Price of one op moving `bytes`, outside any slow window.
  [[nodiscard]] std::chrono::nanoseconds cost(std::size_t bytes) const;
};

class ModeledDevice final : public StorageBackend {
 public:
  /// Prices `inner` as node `node`'s device. With `sleep`, each op also
  /// takes its price in wall time.
  ModeledDevice(std::unique_ptr<StorageBackend> inner, DeviceModel model,
                std::uint32_t node, bool sleep);

  util::Status store(ObjectKey key, std::span<const std::byte> bytes) override;
  util::Status store(ObjectKey key, std::vector<std::byte>&& bytes) override;
  util::Result<std::vector<std::byte>> load(ObjectKey key) override;
  util::Status erase(ObjectKey key) override { return inner_->erase(key); }
  bool contains(ObjectKey key) const override { return inner_->contains(key); }
  std::size_t count() const override { return inner_->count(); }
  std::uint64_t stored_bytes() const override { return inner_->stored_bytes(); }
  /// Inner stats plus the virtual microseconds this device charged.
  BackendStats stats() const override;

 private:
  /// Takes the next op index, adds the op's price to `*bucket`, and sleeps
  /// it when this device sleeps.
  void charge(std::size_t bytes, std::uint64_t* bucket);

  std::unique_ptr<StorageBackend> inner_;
  DeviceModel model_;  // slow_windows holds this node's windows only
  bool sleep_;
  mutable std::mutex mutex_;  // guards the three fields below
  std::uint64_t op_index_ = 0;
  std::uint64_t virtual_store_us_ = 0;
  std::uint64_t virtual_load_us_ = 0;
};

}  // namespace mrts::storage
