#include "storage/modeled_device.hpp"

#include <algorithm>
#include <thread>

namespace mrts::storage {

std::chrono::nanoseconds DeviceModel::cost(std::size_t bytes) const {
  auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(access_latency);
  if (bandwidth_bytes_per_sec > 0.0) {
    ns += std::chrono::nanoseconds(static_cast<std::int64_t>(
        static_cast<double>(bytes) / bandwidth_bytes_per_sec * 1e9));
  }
  return ns;
}

ModeledDevice::ModeledDevice(std::unique_ptr<StorageBackend> inner,
                             DeviceModel model, std::uint32_t node, bool sleep)
    : inner_(std::move(inner)), model_(std::move(model)), sleep_(sleep) {
  std::erase_if(model_.slow_windows,
                [node](const SlowWindow& w) { return w.node != node; });
}

void ModeledDevice::charge(std::size_t bytes, std::uint64_t* bucket) {
  auto price = model_.cost(bytes);
  {
    std::lock_guard lock(mutex_);
    const std::uint64_t op = op_index_++;
    for (const SlowWindow& w : model_.slow_windows) {
      if (op >= w.begin_op && op < w.end_op) {
        price *= std::max<std::uint32_t>(w.inflation, 1);
        break;
      }
    }
    *bucket += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(price).count());
  }
  if (sleep_) std::this_thread::sleep_for(price);
}

util::Status ModeledDevice::store(ObjectKey key,
                                  std::span<const std::byte> bytes) {
  charge(bytes.size(), &virtual_store_us_);
  return inner_->store(key, bytes);
}

util::Status ModeledDevice::store(ObjectKey key,
                                  std::vector<std::byte>&& bytes) {
  charge(bytes.size(), &virtual_store_us_);
  return inner_->store(key, std::move(bytes));
}

util::Result<std::vector<std::byte>> ModeledDevice::load(ObjectKey key) {
  auto result = inner_->load(key);
  charge(result.is_ok() ? result.value().size() : 0, &virtual_load_us_);
  return result;
}

BackendStats ModeledDevice::stats() const {
  BackendStats s = inner_->stats();
  std::lock_guard lock(mutex_);
  s.virtual_store_latency_us += virtual_store_us_;
  s.virtual_load_latency_us += virtual_load_us_;
  return s;
}

}  // namespace mrts::storage
