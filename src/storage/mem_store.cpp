#include "storage/mem_store.hpp"

namespace mrts::storage {

util::Status MemStore::store(ObjectKey key, std::span<const std::byte> bytes) {
  std::lock_guard lock(mutex_);
  auto& slot = blobs_[key];
  stored_bytes_ -= slot.size();
  slot.assign(bytes.begin(), bytes.end());
  stored_bytes_ += slot.size();
  stats_.bytes_written += bytes.size();
  ++stats_.store_ops;
  return util::Status::ok();
}

util::Status MemStore::store(ObjectKey key, std::vector<std::byte>&& bytes) {
  // Zero-copy variant: the blob buffer (serialized and sealed in place by
  // the spill path) becomes the stored slot directly.
  std::lock_guard lock(mutex_);
  auto& slot = blobs_[key];
  stored_bytes_ -= slot.size();
  stats_.bytes_written += bytes.size();
  slot = std::move(bytes);
  stored_bytes_ += slot.size();
  ++stats_.store_ops;
  return util::Status::ok();
}

util::Result<std::vector<std::byte>> MemStore::load(ObjectKey key) {
  std::lock_guard lock(mutex_);
  auto it = blobs_.find(key);
  if (it == blobs_.end()) {
    return util::Status(util::StatusCode::kNotFound, "no such object");
  }
  stats_.bytes_read += it->second.size();
  ++stats_.load_ops;
  return it->second;
}

util::Status MemStore::erase(ObjectKey key) {
  std::lock_guard lock(mutex_);
  auto it = blobs_.find(key);
  if (it == blobs_.end()) {
    return util::Status(util::StatusCode::kNotFound, "no such object");
  }
  stored_bytes_ -= it->second.size();
  blobs_.erase(it);
  ++stats_.erase_ops;
  return util::Status::ok();
}

bool MemStore::contains(ObjectKey key) const {
  std::lock_guard lock(mutex_);
  return blobs_.contains(key);
}

std::size_t MemStore::count() const {
  std::lock_guard lock(mutex_);
  return blobs_.size();
}

std::uint64_t MemStore::stored_bytes() const {
  std::lock_guard lock(mutex_);
  return stored_bytes_;
}

BackendStats MemStore::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace mrts::storage
