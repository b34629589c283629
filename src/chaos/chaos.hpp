#pragma once

// Chaos harness: configures a Cluster for a deterministic fault-injection
// run and observes it across all three layers. One ChaosPlan seed fully
// determines the node schedule, every network fault, every storage fault,
// and every pause window — replaying the seed reproduces the run byte for
// byte (EventTrace::crc compares two runs cheaply).
//
// Usage:
//   chaos::Harness harness({.seed = 7, .net = {.drop_rate = 0.01}});
//   core::ClusterOptions opts = ...;
//   harness.instrument(opts);
//   core::Cluster cluster(opts);
//   ... build workload, cluster.run() ...
//   chaos::InvariantReport report = harness.check(cluster);
//   ASSERT_TRUE(report.ok()) << report.to_string();

#include <cstdint>
#include <vector>

#include "chaos/event_trace.hpp"
#include "chaos/invariants.hpp"
#include "core/cluster.hpp"
#include "core/membership.hpp"
#include "simnet/fabric.hpp"
#include "storage/fault_store.hpp"

namespace mrts::chaos {

/// Node `node` is paused (skipped by the deterministic driver: no polling,
/// no handlers, no I/O) for steps in [begin_step, end_step).
struct PauseWindow {
  net::NodeId node = 0;
  std::uint64_t begin_step = 0;
  std::uint64_t end_step = 0;
};

/// Gray-failure plan: per-node latency-inflation windows for storage ops
/// and net delivery plus intermittent full stalls, all derived from the
/// master seed (kGrayDomain) and byte-replayable like every other plan.
/// Victims are drawn from a seeded shuffle of nodes 1..N-1 (node 0 anchors
/// workload roots, as with membership faults); disk and NIC victims are
/// drawn from the same cycle, so with enough of each a node can be sick in
/// both dimensions at once.
struct DegradedFaultPlan {
  /// Nodes given a slow-disk window (a storage::SlowWindow of the cluster's
  /// modeled device).
  std::size_t slow_disk_nodes = 0;
  /// Window length in device op indices, beginning within [1, horizon].
  std::uint64_t slow_disk_ops = 64;
  std::uint64_t slow_disk_horizon_ops = 256;
  /// Multiplier on base_op_us inside the window.
  std::uint32_t slow_disk_inflation = 16;
  /// The modeled device's access latency, charged per op on EVERY node
  /// (healthy baseline), in virtual microseconds; health scoring is
  /// relative, so the baseline must exist everywhere.
  std::uint64_t base_op_us = 50;
  /// Nodes given a stalling-NIC window (fixed per-message park).
  std::size_t slow_nic_nodes = 0;
  /// Window length in driver steps, beginning within [1, horizon].
  std::uint64_t slow_nic_steps = 48;
  std::uint64_t slow_nic_horizon_steps = 192;
  /// Fixed hold applied to each message sent by the victim in-window.
  std::uint32_t slow_nic_delay_steps = 3;
  /// Short full stalls (pause windows) derived per victim node.
  std::size_t stall_bursts = 0;
  std::uint64_t stall_steps = 4;
  std::uint64_t stall_horizon_steps = 256;

  [[nodiscard]] bool any() const {
    return slow_disk_nodes > 0 || slow_nic_nodes > 0 || stall_bursts > 0;
  }
};

struct ChaosPlan {
  /// Master seed; the node schedule, network faults, storage faults, and
  /// derived pauses all key off it.
  std::uint64_t seed = 1;
  /// Storage faults (rates/schedule); installed when any field is active.
  storage::FaultPlan storage{};
  /// Network faults; installed when any rate or drop_handler is set.
  net::NetFaultPlan net{};
  /// Explicit node pauses.
  std::vector<PauseWindow> pauses{};
  /// Additionally derive this many seeded random pause windows.
  std::size_t random_pauses = 0;
  std::uint64_t max_pause_steps = 32;
  /// Derived pauses start within [1, pause_horizon_steps].
  std::uint64_t pause_horizon_steps = 512;
  /// Derive this many storage blackout windows: spans of consecutive
  /// operation indices during which EVERY store and load on a node's spill
  /// device fails (rates forced to 1.0 via a scheduled FaultWindow) — a
  /// device that has stopped answering, as opposed to background fault
  /// rates. Appended to storage.schedule with seeded offsets; the circuit
  /// breaker and the replicated mirror are what survive them.
  std::size_t storage_blackouts = 0;
  /// Length of each blackout window, in device operations.
  std::uint64_t blackout_ops = 32;
  /// Blackouts begin within [1, blackout_horizon_ops].
  std::uint64_t blackout_horizon_ops = 512;
  /// Gray failures: degraded-but-Up nodes (slow disk, stalling NIC, short
  /// stall bursts). Latency only, never loss — the node keeps answering,
  /// just late, which is exactly what the fail-stop machinery cannot see.
  DegradedFaultPlan degraded{};
  /// Slack the budget invariant allows over each node's memory budget
  /// (reloads may legally overshoot while queues drain).
  std::size_t budget_overshoot_bytes = 1u << 20;
};

/// Membership fault schedule for an elastic-cluster chaos run. Feed the
/// derived event list into core::MembershipOptions and chain the manager
/// over the harness:
///
///   auto events = derive_membership_schedule(plan.membership, plan.seed, N);
///   core::MembershipManager mgr({.events = events, ...});
///   harness.instrument(opts);   // harness becomes the step observer...
///   mgr.instrument(opts);       // ...and the manager wraps it
///   core::Cluster cluster(opts);
///   mgr.attach(cluster);
struct MembershipFaultPlan {
  /// Explicit transitions, merged with the derived ones.
  std::vector<core::MembershipEventSpec> events;
  /// Derive this many fail-stop crashes, each paired with a rejoin.
  std::size_t random_kills = 0;
  /// Derive this many planned drains (victims distinct from the kills').
  std::size_t random_drains = 0;
  /// Derived events begin within [1, event_horizon_steps].
  std::uint64_t event_horizon_steps = 256;
  /// A derived rejoin fires this many steps after its kill.
  std::uint64_t rejoin_delay_min = 16;
  std::uint64_t rejoin_delay_max = 96;
  /// Forwarded to MembershipOptions::work_stealing by sweeps.
  bool work_stealing = false;

  [[nodiscard]] bool any() const {
    return !events.empty() || random_kills > 0 || random_drains > 0;
  }
};

/// Materializes a membership schedule from the plan and the master chaos
/// seed (domain-separated from every other chaos stream). Victims are drawn
/// without replacement and node 0 is never touched — the workload drivers
/// anchor roots and result objects there. Every derived kill is paired with
/// a later rejoin, so the run always ends on a full-strength live set minus
/// the drained nodes.
[[nodiscard]] std::vector<core::MembershipEventSpec> derive_membership_schedule(
    const MembershipFaultPlan& plan, std::uint64_t seed, std::size_t nodes);

class Harness final : public core::StepObserver, public net::FabricObserver {
 public:
  explicit Harness(ChaosPlan plan);

  /// Wires the plan into `options`: deterministic driver, fault plans with
  /// seeds derived from the master seed, and this harness as both the step
  /// and fabric observer. Build the Cluster from the result.
  void instrument(core::ClusterOptions& options);

  // StepObserver
  bool node_runnable(net::NodeId node, std::uint64_t step) override;
  void on_step(std::uint64_t step) override;

  // FabricObserver
  void on_message(const net::MessageEvent& event) override;

  [[nodiscard]] EventTrace& trace() { return trace_; }
  [[nodiscard]] const TraceChecker& checker() const { return checker_; }
  [[nodiscard]] const ChaosPlan& plan() const { return plan_; }

  /// Runs every invariant checker against the quiesced cluster: transport
  /// FIFO/exactly-once/no-loss, directory convergence, and the OOC budget.
  [[nodiscard]] InvariantReport check(core::Cluster& cluster) const;

  /// Transport-level invariants only — for pipelines (e.g. run_opcdm_ooc)
  /// that build and destroy their cluster internally.
  [[nodiscard]] InvariantReport check_transport() const;

 private:
  [[nodiscard]] static bool storage_plan_active(
      const storage::FaultPlan& plan);

  ChaosPlan plan_;
  std::vector<PauseWindow> pauses_;  // explicit + derived
  EventTrace trace_;
  TraceChecker checker_;
};

}  // namespace mrts::chaos
