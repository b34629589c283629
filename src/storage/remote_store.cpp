#include "storage/remote_store.hpp"

namespace mrts::storage {
namespace {

/// Per-node view over the shared pool; tracks this node's keys and stats.
class RemoteMemoryBackend final : public StorageBackend {
 public:
  RemoteMemoryBackend(RemoteMemoryPool& pool, std::uint32_t local)
      : pool_(&pool), local_(local) {}

  util::Status store(ObjectKey key, std::span<const std::byte> bytes) override {
    if (auto s = pool_->pool_store(local_, key, bytes); !s.is_ok()) return s;
    std::lock_guard lock(mutex_);
    auto [it, inserted] = sizes_.try_emplace(key, 0);
    stored_bytes_ -= it->second;
    it->second = bytes.size();
    stored_bytes_ += bytes.size();
    stats_.bytes_written += bytes.size();
    ++stats_.store_ops;
    return util::Status::ok();
  }

  util::Result<std::vector<std::byte>> load(ObjectKey key) override {
    auto result = pool_->pool_load(local_, key);
    if (result.is_ok()) {
      std::lock_guard lock(mutex_);
      stats_.bytes_read += result.value().size();
      ++stats_.load_ops;
    }
    return result;
  }

  util::Status erase(ObjectKey key) override {
    if (auto s = pool_->pool_erase(local_, key); !s.is_ok()) return s;
    std::lock_guard lock(mutex_);
    auto it = sizes_.find(key);
    if (it != sizes_.end()) {
      stored_bytes_ -= it->second;
      sizes_.erase(it);
    }
    ++stats_.erase_ops;
    return util::Status::ok();
  }

  bool contains(ObjectKey key) const override {
    std::lock_guard lock(mutex_);
    return sizes_.contains(key);
  }
  std::size_t count() const override {
    std::lock_guard lock(mutex_);
    return sizes_.size();
  }
  std::uint64_t stored_bytes() const override {
    std::lock_guard lock(mutex_);
    return stored_bytes_;
  }
  BackendStats stats() const override {
    std::lock_guard lock(mutex_);
    return stats_;
  }

 private:
  RemoteMemoryPool* pool_;
  std::uint32_t local_;
  mutable std::mutex mutex_;
  std::unordered_map<ObjectKey, std::uint64_t> sizes_;
  std::uint64_t stored_bytes_ = 0;
  BackendStats stats_{};
};

}  // namespace

RemoteMemoryPool::RemoteMemoryPool(std::size_t nodes,
                                   std::uint64_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {
  partitions_.reserve(nodes == 0 ? 1 : nodes);
  for (std::size_t i = 0; i < (nodes == 0 ? 1 : nodes); ++i) {
    partitions_.push_back(std::make_unique<Partition>());
  }
}

std::uint32_t RemoteMemoryPool::partition_of(std::uint32_t owner,
                                             ObjectKey key) const {
  const auto n = static_cast<std::uint32_t>(partitions_.size());
  if (n == 1) return 0;
  // Spread an owner's blobs over the n-1 peers, never its own partition.
  std::uint64_t z = key * 0x9E3779B97F4A7C15ull + owner;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  const auto slot = static_cast<std::uint32_t>(z % (n - 1));
  return slot >= owner ? slot + 1 : slot;
}

std::unique_ptr<StorageBackend> RemoteMemoryPool::backend_for(
    std::uint32_t local) {
  return std::make_unique<RemoteMemoryBackend>(*this, local);
}

std::uint64_t RemoteMemoryPool::stored_on(std::uint32_t node) const {
  const auto& p = *partitions_.at(node);
  std::lock_guard lock(p.mutex);
  return p.bytes;
}

util::Status RemoteMemoryPool::pool_store(std::uint32_t owner, ObjectKey key,
                                          std::span<const std::byte> bytes) {
  auto& part = *partitions_[partition_of(owner, key)];
  std::lock_guard lock(part.mutex);
  if (capacity_bytes_ != 0) {
    auto it = part.blobs.find(key);
    const std::uint64_t replaced =
        it != part.blobs.end() ? it->second.size() : 0;
    if (part.bytes - replaced + bytes.size() > capacity_bytes_) {
      return {util::StatusCode::kUnavailable, "remote memory partition full"};
    }
  }
  auto& slot = part.blobs[key];
  part.bytes -= slot.size();
  slot.assign(bytes.begin(), bytes.end());
  part.bytes += slot.size();
  return util::Status::ok();
}

util::Result<std::vector<std::byte>> RemoteMemoryPool::pool_load(
    std::uint32_t owner, ObjectKey key) {
  auto& part = *partitions_[partition_of(owner, key)];
  std::lock_guard lock(part.mutex);
  auto it = part.blobs.find(key);
  if (it == part.blobs.end()) {
    return util::Status(util::StatusCode::kNotFound, "no such remote blob");
  }
  return it->second;
}

util::Status RemoteMemoryPool::pool_erase(std::uint32_t owner, ObjectKey key) {
  auto& part = *partitions_[partition_of(owner, key)];
  std::lock_guard lock(part.mutex);
  auto it = part.blobs.find(key);
  if (it == part.blobs.end()) {
    return {util::StatusCode::kNotFound, "no such remote blob"};
  }
  part.bytes -= it->second.size();
  part.blobs.erase(it);
  return util::Status::ok();
}

}  // namespace mrts::storage
