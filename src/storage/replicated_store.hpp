#pragma once

// Replicated spill store (Weaver-style repair-on-read): every store is
// mirrored to a secondary backend; loads that fail on the primary — hard
// error or seal/CRC mismatch — fall back to the mirror and repair the
// primary copy in place (scrub-on-read). A per-primary circuit breaker
// opens after N consecutive hard failures so a blacked-out device stops
// eating latency: new stores route straight to the mirror (or a bounded
// in-memory overflow when the mirror refuses too) until a probe succeeds.
//
// Placement: outermost decorator of a node's spill stack —
//   ReplicatedStore( primary = FaultStore(ModeledDevice(base)), mirror )
// so injected faults and device latency hit only the primary, exactly like
// a sick disk under a healthy replica.
//
// stats()/count()/stored_bytes() report the PRIMARY (device traffic, what
// the benches chart); recovery activity is exposed via replicated_stats()
// and as obs metrics. Thread-safe: one mutex serializes decisions and inner
// calls (each node owns its stack; the only concurrency is the node's I/O
// thread against control-thread erase()).

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "storage/backend.hpp"
#include "storage/circuit_breaker.hpp"

namespace mrts::storage {

struct ReplicatedStoreOptions {
  /// Consecutive hard primary failures (kUnavailable/kIoError/corrupt seal)
  /// before the breaker opens.
  int breaker_failure_threshold = 3;
  /// Primary operations skipped while open before one probe is admitted.
  /// Counted in operations, not wall time, for deterministic replay.
  std::uint64_t breaker_cooldown_ops = 16;
  /// Bound on bytes parked in the in-memory overflow when both primary and
  /// mirror refuse a store; beyond it the store error is propagated.
  std::uint64_t overflow_capacity_bytes = 64u << 20;
  /// Hedged reads (gray-failure mitigation): when the primary's recent
  /// per-load modeled latency (EWMA of the virtual_*_latency_us deltas it
  /// reports) reaches hedge_latency_us, race the mirror *first*. A sealed
  /// mirror hit wins and the slow primary op is skipped entirely — the
  /// deterministic analogue of cancelling the losing leg; a mirror miss is
  /// a hedge loss and falls through to the normal primary path. Off by
  /// default: the knob must not perturb existing sweep digests.
  bool hedged_reads = false;
  /// Virtual-latency hedge trigger, in modeled microseconds per load.
  std::uint64_t hedge_latency_us = 400;
  /// Metrics/trace track (the owning node id).
  std::uint32_t tag = 0;
};

/// Recovery-side counters; primary device traffic stays in stats().
struct ReplicatedStats {
  std::uint64_t mirror_writes = 0;        // successful mirror copies
  std::uint64_t mirror_write_failures = 0;
  std::uint64_t mirror_hits = 0;          // loads served by the mirror
  std::uint64_t repairs = 0;              // primary copies rewritten on read
  std::uint64_t redirected_stores = 0;    // stores routed around an open breaker
  std::uint64_t overflow_stores = 0;      // stores parked in the overflow
  std::uint64_t overflow_bytes = 0;       // bytes currently parked
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_probes = 0;
  std::uint64_t hedged_reads = 0;     // loads that raced the mirror first
  std::uint64_t hedge_wins = 0;       // mirror answered; primary op skipped
  std::uint64_t hedge_losses = 0;     // mirror couldn't; primary path ran
  /// Primary per-load modeled latency EWMA driving the hedge decision.
  std::uint64_t primary_load_ewma_us = 0;
  BreakerState breaker_state = BreakerState::kClosed;
};

class ReplicatedStore final : public StorageBackend {
 public:
  ReplicatedStore(std::unique_ptr<StorageBackend> primary,
                  std::unique_ptr<StorageBackend> mirror,
                  ReplicatedStoreOptions options = {});

  util::Status store(ObjectKey key, std::span<const std::byte> bytes) override;
  util::Result<std::vector<std::byte>> load(ObjectKey key) override;
  util::Status erase(ObjectKey key) override;
  bool contains(ObjectKey key) const override;
  std::size_t count() const override;
  std::uint64_t stored_bytes() const override;
  /// Primary-device view (what the paper's disk-traffic figures chart).
  BackendStats stats() const override;

  [[nodiscard]] ReplicatedStats replicated_stats() const;
  [[nodiscard]] const StorageBackend& primary() const { return *primary_; }
  [[nodiscard]] const StorageBackend& mirror() const { return *mirror_; }

 private:
  /// True for results the breaker should count against the primary.
  [[nodiscard]] bool hard_failure(util::StatusCode code) const;
  /// Emits metrics + a trace instant; call with mutex_ held.
  void note_transition_locked(const char* what);
  /// Folds the primary's modeled load cost since the last load into the
  /// hedge EWMA; call with mutex_ held after a primary load attempt.
  void update_hedge_ewma_locked();
  /// Re-plays parked overflow blobs into a freshly healed primary.
  void drain_overflow_locked();

  std::unique_ptr<StorageBackend> primary_;
  std::unique_ptr<StorageBackend> mirror_;
  const ReplicatedStoreOptions options_;

  mutable std::mutex mutex_;
  CircuitBreaker breaker_;
  std::unordered_map<ObjectKey, std::vector<std::byte>> overflow_;
  std::uint64_t overflow_bytes_ = 0;
  /// Keys whose freshest version did not land on the primary (redirected,
  /// failed store, failed erase): the primary's lingering older blob would
  /// pass its seal check yet be stale, so loads skip the primary until a
  /// repair rewrites it. The stale-replica guard behind the sweep's
  /// no-silent-data-loss invariant.
  std::unordered_set<ObjectKey> primary_stale_;
  /// Primary virtual-load-latency snapshot from the previous load, so each
  /// load's modeled cost can be differenced into the hedge EWMA. Integer
  /// arithmetic over deterministic inputs: replays bit-identically.
  std::uint64_t prev_load_virtual_us_ = 0;
  std::uint64_t prev_load_ops_ = 0;
  ReplicatedStats rstats_;
};

}  // namespace mrts::storage
