#pragma once

// In-memory StorageBackend. Used in unit tests, as the replicated mirror,
// and as the base layer under a ModeledDevice when a run needs modeled
// "disk" timing decoupled from the host filesystem.

#include <mutex>
#include <unordered_map>

#include "storage/backend.hpp"

namespace mrts::storage {

class MemStore final : public StorageBackend {
 public:
  util::Status store(ObjectKey key, std::span<const std::byte> bytes) override;
  util::Status store(ObjectKey key, std::vector<std::byte>&& bytes) override;
  util::Result<std::vector<std::byte>> load(ObjectKey key) override;
  util::Status erase(ObjectKey key) override;
  bool contains(ObjectKey key) const override;
  std::size_t count() const override;
  std::uint64_t stored_bytes() const override;
  BackendStats stats() const override;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<ObjectKey, std::vector<std::byte>> blobs_;
  std::uint64_t stored_bytes_ = 0;
  BackendStats stats_{};
};

}  // namespace mrts::storage
