#pragma once

// Decorator that adds a modeled device latency (fixed seek cost plus a
// bytes/bandwidth transfer term) to every store/load of an inner backend.
// Used to emulate the paper's cluster-era disks deterministically on fast
// local storage, and to study the runtime's latency tolerance (Tables IV-VI).

#include <atomic>
#include <chrono>
#include <memory>

#include "storage/backend.hpp"
#include "util/timer.hpp"

namespace mrts::storage {

struct DeviceModel {
  /// Per-operation fixed cost (seek + controller).
  std::chrono::microseconds access_latency{0};
  /// Sustained transfer rate; <= 0 disables the transfer term.
  double bandwidth_bytes_per_sec = 0.0;

  [[nodiscard]] std::chrono::nanoseconds cost(std::size_t bytes) const;
};

class LatencyStore final : public StorageBackend {
 public:
  LatencyStore(std::unique_ptr<StorageBackend> inner, DeviceModel model)
      : inner_(std::move(inner)), model_(model) {}

  util::Status store(ObjectKey key, std::span<const std::byte> bytes) override;
  util::Status store(ObjectKey key, std::vector<std::byte>&& bytes) override;
  util::Result<std::vector<std::byte>> load(ObjectKey key) override;
  util::Status erase(ObjectKey key) override { return inner_->erase(key); }
  bool contains(ObjectKey key) const override { return inner_->contains(key); }
  std::size_t count() const override { return inner_->count(); }
  std::uint64_t stored_bytes() const override { return inner_->stored_bytes(); }
  /// Inner stats plus this decorator's modeled cost charged into the
  /// virtual_*_latency_us fields, so health scoring and the stall figures
  /// see the device model without timing real sleeps.
  BackendStats stats() const override;

  [[nodiscard]] const DeviceModel& model() const { return model_; }

 private:
  std::unique_ptr<StorageBackend> inner_;
  DeviceModel model_;
  std::atomic<std::uint64_t> virtual_store_us_{0};
  std::atomic<std::uint64_t> virtual_load_us_{0};
};

}  // namespace mrts::storage
