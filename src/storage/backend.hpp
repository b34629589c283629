#pragma once

// Storage-layer backend interface (paper §II.D "storage layer"). The
// underlying facility is hidden from the application: the runtime sees only
// keyed blobs. Implementations: FileStore (real files on disk), MemStore
// (in-memory, for tests), RemoteMemoryPool views (peers' RAM), plus
// decorators adding modeled device time (ModeledDevice), injected faults
// and replication.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/status.hpp"

namespace mrts::storage {

/// Globally unique identifier of a stored blob (the mobile object id).
using ObjectKey = std::uint64_t;

/// Byte and op counters maintained by every backend; used by the benches to
/// report disk traffic. store/load/erase_ops count keyed operations.
struct BackendStats {
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t store_ops = 0;
  std::uint64_t load_ops = 0;
  std::uint64_t erase_ops = 0;
  // --- modeled device time (ModeledDevice) --------------------------------
  /// Accumulated *virtual* microseconds of modeled device cost, charged per
  /// op as a pure function of the op schedule and its bytes (never wall
  /// clock), whether or not the device also sleeps it. This is the
  /// health-scoring signal: HealthMonitor differences these between samples
  /// to see a slow device deterministically, and the gray-failure bench
  /// reports their sum as the reload-stall figure.
  std::uint64_t virtual_store_latency_us = 0;
  std::uint64_t virtual_load_latency_us = 0;
};

/// Abstract keyed blob store. Implementations must be thread-safe: the
/// ObjectStore I/O thread and application threads may call concurrently.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Writes or overwrites the blob stored under `key`. A failed store may
  /// leave the key with no blob (kNotFound), but never serves a torn one as
  /// stored. An overwrite need not be atomic across a crash: no backend
  /// reopens spill data, and FileStore deletes its files when destroyed.
  virtual util::Status store(ObjectKey key, std::span<const std::byte> bytes) = 0;

  /// Move-aware store: a backend that keeps whole blobs (MemStore) adopts
  /// the buffer outright instead of copying it; the default forwards to the
  /// span overload and leaves `bytes` untouched. Contract for overriders:
  /// `bytes` may be consumed ONLY on success — on any failure it must still
  /// hold the payload, because the retry loop and the ObjectStore failure
  /// hand-back path (the object's only serialized copy) both reuse it.
  virtual util::Status store(ObjectKey key, std::vector<std::byte>&& bytes) {
    return store(key, std::span<const std::byte>(bytes));
  }

  /// Reads the full blob stored under `key`.
  virtual util::Result<std::vector<std::byte>> load(ObjectKey key) = 0;

  /// Removes the blob; kNotFound if absent.
  virtual util::Status erase(ObjectKey key) = 0;

  virtual bool contains(ObjectKey key) const = 0;

  /// Number of blobs currently stored.
  virtual std::size_t count() const = 0;

  /// Total bytes currently stored.
  virtual std::uint64_t stored_bytes() const = 0;

  virtual BackendStats stats() const = 0;
};

}  // namespace mrts::storage
