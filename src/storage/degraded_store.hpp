#pragma once

// Gray-failure decorator: a device that still works but is *slow*. Charges a
// modeled per-op virtual cost into BackendStats (virtual_*_latency_us), and
// inflates it by a plan-chosen factor inside op-index windows — the storage
// half of a degraded node. Unlike FaultStore it never fails an op and never
// consumes randomness: the charge is a pure function of the op index, so a
// degraded run replays byte-identically and its schedule is unchanged (no
// sleeping, no RNG draws). Sits between LatencyStore and FaultStore in the
// spill stack, i.e. inside ReplicatedStore's *primary* chain, which is what
// lets hedged mirror reads dodge the slow device entirely.

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "storage/backend.hpp"

namespace mrts::storage {

/// One latency-inflation window, in op indices (stores + loads combined,
/// counted per node like FaultWindow): ops with index in [begin_op, end_op)
/// cost `inflation x base_op_us` instead of `base_op_us`.
struct DegradedWindow {
  std::uint64_t begin_op = 0;
  std::uint64_t end_op = std::numeric_limits<std::uint64_t>::max();
  std::uint32_t inflation = 16;
};

/// Per-node degradation plan. `base_op_us` is charged on every op even
/// outside windows so healthy nodes accrue a comparable baseline — health
/// scoring is relative, not absolute.
struct DegradedPlan {
  std::uint64_t base_op_us = 50;
  std::vector<DegradedWindow> windows{};
  /// Node id stamped into nothing yet; kept for symmetry with FaultPlan and
  /// used by the chaos trace notes at derivation time.
  std::uint32_t tag = 0;

  [[nodiscard]] bool degraded() const { return !windows.empty(); }
};

class DegradedStore final : public StorageBackend {
 public:
  DegradedStore(std::unique_ptr<StorageBackend> inner, DegradedPlan plan)
      : inner_(std::move(inner)), plan_(std::move(plan)) {}

  util::Status store(ObjectKey key, std::span<const std::byte> bytes) override;
  util::Status store(ObjectKey key, std::vector<std::byte>&& bytes) override;
  util::Result<std::vector<std::byte>> load(ObjectKey key) override;
  util::Status erase(ObjectKey key) override { return inner_->erase(key); }
  bool contains(ObjectKey key) const override { return inner_->contains(key); }
  std::size_t count() const override { return inner_->count(); }
  std::uint64_t stored_bytes() const override { return inner_->stored_bytes(); }
  BackendStats stats() const override;

  [[nodiscard]] const DegradedPlan& plan() const { return plan_; }
  /// Ops that fell inside an inflation window so far.
  [[nodiscard]] std::uint64_t degraded_ops() const;

 private:
  /// Advances the op counter and returns the virtual cost of this op.
  std::uint64_t charge(std::uint64_t* bucket);

  std::unique_ptr<StorageBackend> inner_;
  DegradedPlan plan_;
  mutable std::mutex mutex_;
  std::uint64_t op_index_ = 0;
  std::uint64_t degraded_ops_ = 0;
  std::uint64_t virtual_store_us_ = 0;
  std::uint64_t virtual_load_us_ = 0;
};

}  // namespace mrts::storage
