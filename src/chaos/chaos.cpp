#include "chaos/chaos.hpp"

#include <algorithm>

#include "util/format.hpp"
#include "util/rng.hpp"

namespace mrts::chaos {
namespace {

// Domain-separation constants so each consumer of the master seed draws
// from an independent stream.
constexpr std::uint64_t kSchedDomain = 0x736368656475ull;   // "schedu"
constexpr std::uint64_t kNetDomain = 0x6e6574ull;           // "net"
constexpr std::uint64_t kStorageDomain = 0x7374726full;     // "stor"
constexpr std::uint64_t kPauseDomain = 0x7061757365ull;     // "pause"
constexpr std::uint64_t kBlackoutDomain = 0x626c61636bull;  // "black"
constexpr std::uint64_t kMembershipDomain = 0x6d656d62ull;  // "memb"
constexpr std::uint64_t kGrayDomain = 0x67726179ull;        // "gray"

std::uint64_t derive(std::uint64_t seed, std::uint64_t domain) {
  std::uint64_t s = seed ^ domain;
  return util::splitmix64(s);
}

}  // namespace

Harness::Harness(ChaosPlan plan) : plan_(std::move(plan)) {
  pauses_ = plan_.pauses;
}

std::vector<core::MembershipEventSpec> derive_membership_schedule(
    const MembershipFaultPlan& plan, std::uint64_t seed, std::size_t nodes) {
  std::vector<core::MembershipEventSpec> events = plan.events;
  const std::size_t wanted = plan.random_kills + plan.random_drains;
  if (nodes > 1 && wanted > 0) {
    util::Rng rng(derive(seed, kMembershipDomain));
    // Victims without replacement, never node 0: the workload drivers anchor
    // their roots and result objects there.
    std::vector<net::NodeId> victims;
    victims.reserve(nodes - 1);
    for (std::size_t i = 1; i < nodes; ++i) {
      victims.push_back(static_cast<net::NodeId>(i));
    }
    for (std::size_t i = victims.size(); i > 1; --i) {
      std::swap(victims[i - 1], victims[rng.below(i)]);
    }
    const std::uint64_t horizon =
        std::max<std::uint64_t>(plan.event_horizon_steps, 1);
    std::size_t vi = 0;
    for (std::size_t k = 0; k < plan.random_drains && vi < victims.size();
         ++k) {
      events.push_back(
          core::MembershipEventSpec{.step = 1 + rng.below(horizon),
                              .kind = core::MembershipEventSpec::Kind::kDrain,
                              .node = victims[vi++]});
    }
    for (std::size_t k = 0; k < plan.random_kills && vi < victims.size();
         ++k) {
      const net::NodeId node = victims[vi++];
      const std::uint64_t at = 1 + rng.below(horizon);
      events.push_back(core::MembershipEventSpec{
          .step = at, .kind = core::MembershipEventSpec::Kind::kKill, .node = node});
      const std::uint64_t lo = std::min(plan.rejoin_delay_min,
                                        plan.rejoin_delay_max);
      const std::uint64_t hi = std::max(plan.rejoin_delay_min,
                                        plan.rejoin_delay_max);
      // Every kill is paired with a rejoin: the run must end at full
      // strength (minus drained nodes) so parked traffic always drains.
      events.push_back(
          core::MembershipEventSpec{.step = at + lo + rng.below(hi - lo + 1),
                              .kind = core::MembershipEventSpec::Kind::kRejoin,
                              .node = node});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const core::MembershipEventSpec& a,
                      const core::MembershipEventSpec& b) {
                     return a.step < b.step;
                   });
  return events;
}

bool Harness::storage_plan_active(const storage::FaultPlan& plan) {
  return plan.store_failure_rate > 0.0 || plan.load_failure_rate > 0.0 ||
         plan.corruption_rate > 0.0 || plan.torn_write_rate > 0.0 ||
         plan.latency_spike_rate > 0.0 || !plan.schedule.empty();
}

void Harness::instrument(core::ClusterOptions& options) {
  options.deterministic = true;
  options.det_seed = derive(plan_.seed, kSchedDomain);
  options.step_observer = this;
  options.fabric_observer = this;

  // Gray-failure derivation: victims from a seeded shuffle of 1..N-1 (node
  // 0 anchors workload roots), then slow-disk windows, stalling-NIC windows,
  // and stall bursts, in that fixed draw order. Everything lands in plan
  // structures that consume no RNG at run time, so the run replays byte for
  // byte and the other chaos streams are untouched.
  net::NetFaultPlan net = plan_.net;
  if (plan_.degraded.any() && options.nodes > 1) {
    const DegradedFaultPlan& g = plan_.degraded;
    util::Rng rng(derive(plan_.seed, kGrayDomain));
    std::vector<net::NodeId> victims;
    victims.reserve(options.nodes - 1);
    for (std::size_t i = 1; i < options.nodes; ++i) {
      victims.push_back(static_cast<net::NodeId>(i));
    }
    for (std::size_t i = victims.size(); i > 1; --i) {
      std::swap(victims[i - 1], victims[rng.below(i)]);
    }
    std::size_t vi = 0;  // shared cycle: a node can be sick on both axes
    options.device.access_latency = std::chrono::microseconds(g.base_op_us);
    for (std::size_t k = 0; k < g.slow_disk_nodes; ++k) {
      storage::SlowWindow w;
      w.node = victims[vi++ % victims.size()];
      w.begin_op = 1 + rng.below(
          std::max<std::uint64_t>(g.slow_disk_horizon_ops, 1));
      w.end_op = w.begin_op + std::max<std::uint64_t>(g.slow_disk_ops, 1);
      w.inflation = g.slow_disk_inflation;
      options.device.slow_windows.push_back(w);
      trace_.note(util::format("slow-disk node={} ops=[{},{}) x{}", w.node,
                               w.begin_op, w.end_op, w.inflation));
    }
    for (std::size_t k = 0; k < g.slow_nic_nodes; ++k) {
      const net::NodeId node = victims[vi++ % victims.size()];
      net::NetFaultPlan::DegradedLink w;
      w.node = node;
      w.begin_step = 1 + rng.below(
          std::max<std::uint64_t>(g.slow_nic_horizon_steps, 1));
      w.end_step = w.begin_step + std::max<std::uint64_t>(g.slow_nic_steps, 1);
      w.delay_steps = g.slow_nic_delay_steps;
      net.degraded_links.push_back(w);
      trace_.note(util::format("slow-nic node={} steps=[{},{}) hold={}", node,
                               w.begin_step, w.end_step, w.delay_steps));
    }
    for (std::size_t k = 0; k < g.stall_bursts; ++k) {
      PauseWindow w;
      w.node = victims[vi++ % victims.size()];
      w.begin_step =
          1 + rng.below(std::max<std::uint64_t>(g.stall_horizon_steps, 1));
      w.end_step = w.begin_step + std::max<std::uint64_t>(g.stall_steps, 1);
      pauses_.push_back(w);
    }
  }
  if (net.any()) {
    net.seed = derive(plan_.seed, kNetDomain);
    options.net_faults = net;
  }
  // Blackout windows: scheduled FaultWindows with every rate at 1.0, so the
  // device refuses (or garbles) everything for a span of operations. They
  // make the storage plan active even without background rates.
  if (plan_.storage_blackouts > 0) {
    util::Rng rng(derive(plan_.seed, kBlackoutDomain));
    for (std::size_t k = 0; k < plan_.storage_blackouts; ++k) {
      storage::FaultWindow w;
      w.begin_op =
          1 + rng.below(std::max<std::uint64_t>(plan_.blackout_horizon_ops, 1));
      w.end_op = w.begin_op + std::max<std::uint64_t>(plan_.blackout_ops, 1);
      w.store_failure_rate = 1.0;
      w.load_failure_rate = 1.0;
      plan_.storage.schedule.push_back(w);
      trace_.note(util::format("blackout ops=[{},{})", w.begin_op, w.end_op));
    }
  }
  if (storage_plan_active(plan_.storage)) {
    storage::FaultPlan storage = plan_.storage;
    storage.seed = derive(plan_.seed, kStorageDomain);
    storage.observer = [this](const storage::StoreFaultEvent& e) {
      trace_.storage_fault(e);
    };
    options.storage_faults = std::move(storage);
  }

  // Derived pause windows need the node count, so they materialize here.
  if (plan_.random_pauses > 0) {
    util::Rng rng(derive(plan_.seed, kPauseDomain));
    for (std::size_t k = 0; k < plan_.random_pauses; ++k) {
      PauseWindow w;
      w.node = static_cast<net::NodeId>(rng.below(options.nodes));
      w.begin_step =
          1 + rng.below(std::max<std::uint64_t>(plan_.pause_horizon_steps, 1));
      w.end_step = w.begin_step + 1 +
                   rng.below(std::max<std::uint64_t>(plan_.max_pause_steps, 1));
      pauses_.push_back(w);
    }
  }
  trace_.set_step(1);
  for (const PauseWindow& w : pauses_) {
    trace_.note(util::format("pause node={} steps=[{},{})", w.node,
                             w.begin_step, w.end_step));
  }
}

bool Harness::node_runnable(net::NodeId node, std::uint64_t step) {
  for (const PauseWindow& w : pauses_) {
    if (w.node == node && step >= w.begin_step && step < w.end_step) {
      return false;
    }
  }
  return true;
}

void Harness::on_step(std::uint64_t step) { trace_.set_step(step + 1); }

void Harness::on_message(const net::MessageEvent& event) {
  trace_.message(event);
  checker_.on_message(event);
}

InvariantReport Harness::check_transport() const {
  InvariantReport report;
  checker_.finish(report);
  return report;
}

InvariantReport Harness::check(core::Cluster& cluster) const {
  InvariantReport report;
  checker_.finish(report);
  check_directory_convergence(cluster, report);
  check_budget(cluster, plan_.budget_overshoot_bytes, report);
  check_queue_accounting(cluster, report);
  // End-to-end delivery invariants exist only when the reliable layer is on
  // (the raw wire makes no exactly-once/FIFO promise under fault injection).
  if (cluster.size() > 0 &&
      cluster.node(0).options().reliable_net.enabled) {
    check_exactly_once(cluster, report);
    check_fifo_restored(cluster, report);
  }
  return report;
}

}  // namespace mrts::chaos
