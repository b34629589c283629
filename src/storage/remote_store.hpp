#pragma once

// Remote memory as out-of-core media (paper conclusion, citing [33]): the
// MRTS storage layer can swap mobile objects into the RAM of peer nodes
// instead of local disk — attractive when the cluster has idle memory and
// the network is faster than the disk.
//
// RemoteMemoryPool models the aggregate remote memory of a cluster: one
// pool object is shared by all simulated nodes, and each node obtains a
// StorageBackend view whose blobs are placed in *other* nodes' partitions
// (deterministically by key). The pool itself is free: a cluster prices
// the RDMA put/get of a real implementation by stacking a ModeledDevice
// over each node's view (ClusterOptions::device).

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "storage/backend.hpp"

namespace mrts::storage {

class RemoteMemoryPool {
 public:
  /// `nodes` simulated nodes; per-partition capacity of `capacity_bytes`
  /// (0 = unlimited; a full partition fails stores with kUnavailable).
  explicit RemoteMemoryPool(std::size_t nodes,
                            std::uint64_t capacity_bytes = 0);

  /// A backend for node `local`: its blobs live in other nodes' partitions.
  /// With a single node there is no peer, so blobs fall back to the local
  /// partition (degenerate but functional).
  std::unique_ptr<StorageBackend> backend_for(std::uint32_t local);

  /// Bytes currently parked in `node`'s partition on behalf of peers.
  [[nodiscard]] std::uint64_t stored_on(std::uint32_t node) const;
  [[nodiscard]] std::size_t nodes() const { return partitions_.size(); }

  // --- operations used by the per-node backend views -----------------------

  util::Status pool_store(std::uint32_t owner, ObjectKey key,
                          std::span<const std::byte> bytes);
  util::Result<std::vector<std::byte>> pool_load(std::uint32_t owner,
                                                 ObjectKey key);
  util::Status pool_erase(std::uint32_t owner, ObjectKey key);

 private:
  struct Partition {
    mutable std::mutex mutex;
    std::unordered_map<ObjectKey, std::vector<std::byte>> blobs;
    std::uint64_t bytes = 0;
  };

  /// Deterministic placement of a key for an owner node (never the owner's
  /// own partition when peers exist).
  [[nodiscard]] std::uint32_t partition_of(std::uint32_t owner,
                                           ObjectKey key) const;

  std::vector<std::unique_ptr<Partition>> partitions_;
  std::uint64_t capacity_bytes_;
};

}  // namespace mrts::storage
