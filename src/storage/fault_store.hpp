#pragma once

// Fault-injecting decorator for failure testing: makes a configurable
// fraction of store/load operations fail with kUnavailable (transient),
// corrupts loaded payloads so CRC-based detection can be exercised end to
// end, tears writes (a prefix is persisted yet success is reported), and
// injects latency spikes. Rates can be overridden per operation-index
// window (FaultWindow) so chaos runs can script fault bursts
// deterministically instead of relying on uniform background rates.
//
// Thread safety: store/load/erase may be called concurrently from the
// storage I/O thread while other threads read the fault counters. All
// mutable decision state (RNG, schedule lookup) is guarded by one mutex;
// counters are atomics.

#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "storage/backend.hpp"
#include "util/rng.hpp"

namespace mrts::storage {

enum class StoreFaultKind : std::uint8_t {
  kStoreFail = 0,
  kLoadFail,
  kCorruption,
  kTornWrite,
  kLatencySpike,
};
inline constexpr std::size_t kStoreFaultKinds = 5;

[[nodiscard]] std::string_view to_string(StoreFaultKind kind);

/// One injected fault, reported to the plan's observer (if any).
struct StoreFaultEvent {
  StoreFaultKind kind = StoreFaultKind::kStoreFail;
  std::uint32_t tag = 0;  // plan tag (e.g. node id)
  ObjectKey key = 0;
  std::uint64_t op_index = 0;  // 0-based count of operations attempted
};

/// Rate override active while the store's operation counter lies in
/// [begin_op, end_op). The first matching window wins.
struct FaultWindow {
  std::uint64_t begin_op = 0;
  std::uint64_t end_op = std::numeric_limits<std::uint64_t>::max();
  double store_failure_rate = 0.0;
  double load_failure_rate = 0.0;
  double corruption_rate = 0.0;
  double torn_write_rate = 0.0;
  double latency_spike_rate = 0.0;
};

struct FaultPlan {
  double store_failure_rate = 0.0;  // probability a store returns kUnavailable
  double load_failure_rate = 0.0;   // probability a load returns kUnavailable
  double corruption_rate = 0.0;     // probability a load's payload is flipped
  /// Probability a store persists only a prefix of the payload yet reports
  /// success — the caller's CRC must reject the blob at reload.
  double torn_write_rate = 0.0;
  /// Probability an operation first stalls for `latency_spike`.
  double latency_spike_rate = 0.0;
  std::chrono::microseconds latency_spike{500};
  /// Deterministic fault bursts by operation index, overriding the base
  /// rates above while active.
  std::vector<FaultWindow> schedule{};
  std::uint64_t seed = 42;
  /// Opaque tag copied into every StoreFaultEvent (the cluster sets the
  /// owning node id here).
  std::uint32_t tag = 0;
  /// Called (outside the decision lock) for every injected fault.
  std::function<void(const StoreFaultEvent&)> observer{};
};

class FaultStore final : public StorageBackend {
 public:
  FaultStore(std::unique_ptr<StorageBackend> inner, FaultPlan plan)
      : inner_(std::move(inner)), plan_(std::move(plan)), rng_(plan_.seed) {}

  util::Status store(ObjectKey key, std::span<const std::byte> bytes) override;
  util::Result<std::vector<std::byte>> load(ObjectKey key) override;
  util::Status erase(ObjectKey key) override { return inner_->erase(key); }
  bool contains(ObjectKey key) const override { return inner_->contains(key); }
  std::size_t count() const override { return inner_->count(); }
  std::uint64_t stored_bytes() const override { return inner_->stored_bytes(); }
  BackendStats stats() const override { return inner_->stats(); }

  /// Total faults injected across all kinds.
  [[nodiscard]] std::uint64_t injected_faults() const {
    return injected_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t fault_count(StoreFaultKind kind) const {
    return by_kind_[static_cast<std::size_t>(kind)].load(
        std::memory_order_relaxed);
  }
  /// Operations (stores + loads) attempted so far.
  [[nodiscard]] std::uint64_t operations() const {
    return ops_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-operation fault decision, resolved under one lock so concurrent
  /// callers consume RNG draws atomically.
  struct Decision {
    bool fail = false;
    bool corrupt = false;
    bool torn = false;
    bool spike = false;
    std::uint64_t op = 0;
  };

  Decision decide(ObjectKey key, bool is_store);
  void inject(StoreFaultKind kind, ObjectKey key, std::uint64_t op);

  std::unique_ptr<StorageBackend> inner_;
  const FaultPlan plan_;
  std::mutex mutex_;  // guards rng_ (decision state)
  util::Rng rng_;
  std::atomic<std::uint64_t> ops_{0};
  std::atomic<std::uint64_t> injected_{0};
  std::atomic<std::uint64_t> by_kind_[kStoreFaultKinds] = {};
};

}  // namespace mrts::storage
