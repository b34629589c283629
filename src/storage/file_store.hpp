#pragma once

// File-based StorageBackend: one file per object key inside a spill
// directory, holding the payload and then its little-endian CRC-32, which
// detects torn or corrupted writes. A store overwrites the key's file in
// place: one vectored write, then a truncate to the new length. A store
// that fails drops the key, so it reads kNotFound, never a torn blob. No
// file outlives its FileStore, which reads only files it wrote itself: the
// destructor deletes them, then the directory if nothing else is left in
// it. This is the backend the out-of-core experiments actually swap to.

#include <filesystem>
#include <mutex>
#include <unordered_map>

#include "storage/backend.hpp"

namespace mrts::storage {

class FileStore final : public StorageBackend {
 public:
  /// Creates (or reuses) `dir` as the spill directory. Pre-existing files in
  /// the directory are ignored; keys are tracked per FileStore instance.
  explicit FileStore(std::filesystem::path dir);
  /// Removes this instance's spill files, then `dir` if nothing else is left
  /// in it.
  ~FileStore() override;

  FileStore(const FileStore&) = delete;
  FileStore& operator=(const FileStore&) = delete;

  util::Status store(ObjectKey key, std::span<const std::byte> bytes) override;
  util::Result<std::vector<std::byte>> load(ObjectKey key) override;
  util::Status erase(ObjectKey key) override;
  bool contains(ObjectKey key) const override;
  std::size_t count() const override;
  std::uint64_t stored_bytes() const override;
  BackendStats stats() const override;

  [[nodiscard]] const std::filesystem::path& directory() const { return dir_; }

  /// Removes all spill files created by this instance.
  void clear();

 private:
  std::filesystem::path path_for(ObjectKey key) const;

  std::filesystem::path dir_;
  mutable std::mutex mutex_;
  std::unordered_map<ObjectKey, std::uint64_t> sizes_;  // key -> payload bytes
  std::uint64_t stored_bytes_ = 0;
  BackendStats stats_{};
};

/// Creates a unique temporary spill directory under the system temp path.
std::filesystem::path make_temp_spill_dir(const std::string& tag);

}  // namespace mrts::storage
