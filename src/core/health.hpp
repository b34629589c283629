#pragma once

// Gray-failure detection: a node that is merely *slow* — degraded disk,
// stalling NIC — answers everything and so is invisible to the fail-stop
// machinery (membership, circuit breakers, the recovery ladder). The
// HealthMonitor scores every node from signals the system already emits
// deterministically:
//
//   storage   per-op modeled latency, differenced from the spill backend's
//             virtual_*_latency_us BackendStats between samples (charged by
//             the ModeledDevice as a pure function of the op schedule —
//             never wall clock);
//   network   per-peer retransmit counts and the smoothed ack-RTT estimate
//             (Jacobson/Karels state ReliableLink maintains per tx flow),
//             aggregated *toward* each node: retransmits at my peers mean
//             I am slow to ack.
//
// Scoring is relative — a node is flagged when its signal exceeds a factor
// of the cluster median — and drives a per-node state machine:
//
//   Healthy -> Suspect     suspect_streak consecutive bad samples
//   Suspect -> Probation   probation_streak consecutive clean samples
//   Probation -> Healthy   recover_streak further clean samples
//   Probation -> Suspect   any bad sample (relapse)
//
// A Suspect node KEEPS SERVING — it polls, answers, acks — it just stops
// being *chosen*: placement round-robin, work-steal thief choice, migrate
// fallback, and MeshingService admission all consult the health view
// (directly, or through MembershipManager::node_accepting when the overlay
// is installed). This is deliberately distinct from Draining/Down, which
// are about liveness, not speed.
//
// Everything is integer arithmetic over deterministic inputs on the single
// driver thread, so a degraded chaos run replays byte-identically.

#include <cstdint>
#include <vector>

#include "core/cluster.hpp"
#include "core/membership.hpp"

namespace mrts::obs {
class Counter;
}  // namespace mrts::obs

namespace mrts::core {

enum class HealthState : std::uint8_t { kHealthy = 0, kSuspect, kProbation };

[[nodiscard]] constexpr const char* to_string(HealthState s) {
  switch (s) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kSuspect: return "suspect";
    case HealthState::kProbation: return "probation";
  }
  return "unknown";
}

struct HealthOptions {
  /// Sweeps between samples (signals are differenced per sample).
  std::uint64_t sample_interval = 4;
  /// Storage flag: per-op latency EWMA above latency_factor x the cluster
  /// median of the same EWMA.
  std::uint64_t latency_factor = 4;
  /// Network flag: at least this many new retransmits toward the node in
  /// one sample window...
  std::uint64_t retx_per_sample = 3;
  /// ...or a peer's smoothed RTT toward it above rtt_factor x the cluster
  /// median (medians below the floor are noise and never flag).
  std::uint64_t rtt_factor = 4;
  std::uint64_t min_rtt_floor_ticks = 8;
  /// Streak thresholds for the state machine above.
  int suspect_streak = 2;
  int probation_streak = 3;
  int recover_streak = 3;
};

struct NodeHealth {
  HealthState state = HealthState::kHealthy;
  std::uint64_t storage_ewma_us_per_op = 0;
  std::uint64_t retx_toward_last = 0;  // retransmit delta, last sample
  std::uint64_t srtt_max_ticks = 0;    // worst peer srtt toward this node
  int bad_streak = 0;
  int clean_streak = 0;
  std::uint64_t suspect_events = 0;  // Healthy/Probation -> Suspect edges
  std::uint64_t recoveries = 0;      // Probation -> Healthy edges
};

struct HealthStats {
  std::uint64_t samples = 0;
  std::uint64_t suspects = 0;
  std::uint64_t recoveries = 0;
};

/// Read-side interface the steering layers consult; implemented by
/// HealthMonitor and overlaid onto MembershipManager via set_health_view.
class HealthView {
 public:
  virtual ~HealthView() = default;
  /// False while the node is Suspect: keep serving it, stop choosing it.
  [[nodiscard]] virtual bool node_healthy(NodeId node) const = 0;
};

class HealthMonitor final : public StepObserver,
                            public MembershipView,
                            public HealthView {
 public:
  explicit HealthMonitor(HealthOptions options = {});

  /// Call BEFORE constructing the Cluster (after any MembershipManager's
  /// instrument, so the chain is monitor -> manager -> harness): chains the
  /// observer already installed and forces deterministic mode — sampling is
  /// defined on virtual sweeps only.
  void instrument(ClusterOptions& options);

  /// Call AFTER constructing the Cluster. Standalone (static membership):
  /// installs itself as the MembershipView on every runtime and the
  /// cluster, so node_accepting == healthy.
  void attach(Cluster& cluster);

  /// Elastic mode: overlays health onto an attached MembershipManager
  /// (which stays the installed view); Suspect then factors into the
  /// manager's node_accepting, placement round-robin, steal thief choice,
  /// and fallback preference. Call after membership.attach(cluster).
  void attach(Cluster& cluster, MembershipManager& membership);

  // --- StepObserver --------------------------------------------------------
  bool node_runnable(NodeId node, std::uint64_t step) override;
  void on_step(std::uint64_t step) override;
  [[nodiscard]] bool quiescent() const override;

  // --- HealthView ----------------------------------------------------------
  [[nodiscard]] bool node_healthy(NodeId node) const override;

  // --- MembershipView (standalone mode) ------------------------------------
  [[nodiscard]] bool node_up(NodeId) const override { return true; }
  [[nodiscard]] bool node_accepting(NodeId node) const override {
    return node_healthy(node);
  }
  [[nodiscard]] bool node_departed(NodeId) const override { return false; }
  [[nodiscard]] NodeId fallback_node(NodeId exclude) const override;

  // --- introspection -------------------------------------------------------
  [[nodiscard]] HealthState state(NodeId node) const {
    return nodes_.at(node).health.state;
  }
  [[nodiscard]] const NodeHealth& node_health(NodeId node) const {
    return nodes_.at(node).health;
  }
  [[nodiscard]] const HealthStats& stats() const { return stats_; }
  [[nodiscard]] const HealthOptions& options() const { return options_; }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

 private:
  struct PerNode {
    NodeHealth health;
    // Previous-sample snapshots for differencing. A snapshot that moved
    // backward (crash wiped the backend) resets the baseline instead of
    // underflowing.
    std::uint64_t prev_virtual_us = 0;
    std::uint64_t prev_ops = 0;
  };

  void sample(std::uint64_t step);
  void decide(PerNode& node, bool bad, NodeId id, std::uint64_t step);
  /// Median of the non-zero entries (0 when none): relative scoring needs a
  /// healthy reference, and idle nodes contribute no signal.
  [[nodiscard]] static std::uint64_t median_nonzero(
      std::vector<std::uint64_t> values);

  HealthOptions options_;
  Cluster* cluster_ = nullptr;
  MembershipManager* membership_ = nullptr;
  StepObserver* inner_ = nullptr;
  std::vector<PerNode> nodes_;
  /// Cumulative retransmits per (reporter, target) pair, row-major, for
  /// per-sample differencing with distinct-reporter counting.
  std::vector<std::uint64_t> pair_retx_;
  /// Cluster-median per-op cost from the last sample; idle nodes' scores
  /// age toward it (suspicion expires without fresh evidence).
  std::uint64_t last_stor_ref_ = 0;
  HealthStats stats_;
  obs::Counter* m_suspects_;    // health.suspects
  obs::Counter* m_recoveries_;  // health.recoveries
};

}  // namespace mrts::core
