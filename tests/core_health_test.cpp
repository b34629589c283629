// Gray-failure detection unit/integration tests (ctest label "gray"):
// HealthMonitor's signal scoring and Up -> Suspect -> Probation state
// machine, the MembershipManager health overlay (Suspect nodes stay Up but
// stop being chosen), the ReliableLink suspect_after escalation into the
// FailureLedger, and the adaptive-RTO estimator (always maintained, only
// steering the schedule when the knob is on).

#include <gtest/gtest.h>

#include <string>

#include "chaos/chaos.hpp"
#include "chaos/workload.hpp"
#include "core/health.hpp"
#include "core/membership.hpp"
#include "core/runtime.hpp"
#include "simnet/reliable.hpp"
#include "storage/modeled_device.hpp"

namespace mrts::core {
namespace {

// --- HealthMonitor detection -------------------------------------------------

TEST(HealthMonitor, SlowDiskNodeIsSuspectedAndOthersAreNot) {
  // Node 2's spill device charges 32x the baseline on every op, forever.
  // Relative scoring must flag node 2 (its per-op EWMA exceeds 4x the
  // cluster median) and leave the healthy nodes alone.
  ClusterOptions options;
  options.nodes = 4;
  options.runtime.ooc.memory_budget_bytes = 16u << 10;
  options.runtime.reliable_net.enabled = true;
  options.spill = SpillMedium::kMemory;
  options.device = storage::DeviceModel{
      .access_latency = std::chrono::microseconds(50),
      .slow_windows = {{.node = 2, .inflation = 32}}};

  HealthMonitor monitor({.sample_interval = 2});
  monitor.instrument(options);
  Cluster cluster(options);
  monitor.attach(cluster);

  chaos::HopWorkloadOptions wl;
  wl.objects_per_node = 4;
  wl.payload_words = 512;  // 4KB payloads against a 16KB budget: spills
  wl.routes = 16;
  wl.route_length = 6;
  wl.seed = 11;
  chaos::HopWorkload workload(cluster, wl);
  workload.create_objects();
  workload.inject();
  const auto report = cluster.run();
  ASSERT_FALSE(report.timed_out);
  EXPECT_EQ(workload.executed_hops(), workload.expected_hops());

  ASSERT_GT(monitor.stats().samples, 0u);
  const NodeHealth& sick = monitor.node_health(2);
  EXPECT_GE(sick.suspect_events, 1u)
      << "per-op EWMA " << sick.storage_ewma_us_per_op;
  EXPECT_GT(sick.storage_ewma_us_per_op,
            4 * monitor.node_health(0).storage_ewma_us_per_op);
  for (NodeId id : {NodeId{0}, NodeId{1}, NodeId{3}}) {
    EXPECT_EQ(monitor.node_health(id).suspect_events, 0u) << "node " << id;
    EXPECT_EQ(monitor.state(id), HealthState::kHealthy) << "node " << id;
  }
  // The window never ends, so node 2 is still Suspect — serving (node_up
  // in the standalone view is unconditionally true) but not chosen.
  EXPECT_EQ(monitor.state(2), HealthState::kSuspect);
  EXPECT_TRUE(monitor.node_up(2));
  EXPECT_FALSE(monitor.node_healthy(2));
  EXPECT_FALSE(monitor.node_accepting(2));
  EXPECT_NE(monitor.fallback_node(2), 2);
}

TEST(HealthMonitor, BoundedDegradationRecoversToHealthy) {
  // The slow-disk window covers only the node's first 24 device ops; after
  // it ends the node's per-op cost returns to baseline and the state
  // machine must walk Suspect -> Probation -> Healthy before the run ends.
  // Sampling every sweep gives the streaks room inside a short run.
  ClusterOptions options;
  options.nodes = 4;
  options.runtime.ooc.memory_budget_bytes = 16u << 10;
  options.runtime.reliable_net.enabled = true;
  options.spill = SpillMedium::kMemory;
  options.device = storage::DeviceModel{
      .access_latency = std::chrono::microseconds(50),
      .slow_windows = {
          {.node = 1, .begin_op = 0, .end_op = 24, .inflation = 32}}};

  HealthMonitor monitor({.sample_interval = 1});
  monitor.instrument(options);
  Cluster cluster(options);
  monitor.attach(cluster);

  chaos::HopWorkloadOptions wl;
  wl.objects_per_node = 4;
  wl.payload_words = 512;
  wl.routes = 24;  // long enough tail of healthy samples to recover in
  wl.route_length = 8;
  wl.seed = 7;
  chaos::HopWorkload workload(cluster, wl);
  workload.create_objects();
  workload.inject();
  ASSERT_FALSE(cluster.run().timed_out);

  const NodeHealth& h = monitor.node_health(1);
  EXPECT_GE(h.suspect_events, 1u);
  EXPECT_GE(h.recoveries, 1u) << "state " << to_string(h.state);
  EXPECT_EQ(monitor.state(1), HealthState::kHealthy);
  EXPECT_EQ(monitor.stats().recoveries, h.recoveries);
}

// --- MembershipManager health overlay ---------------------------------------

struct FakeHealth final : HealthView {
  std::vector<bool> sick;
  [[nodiscard]] bool node_healthy(NodeId n) const override {
    return n >= sick.size() || !sick[n];
  }
};

TEST(MembershipHealthOverlay, SuspectNodeStaysUpButStopsBeingChosen) {
  MembershipManager mgr({});
  ClusterOptions options;
  options.nodes = 3;
  mgr.instrument(options);
  Cluster cluster(options);
  mgr.attach(cluster);

  FakeHealth fake;
  fake.sick = {false, true, false};
  mgr.set_health_view(&fake);

  EXPECT_TRUE(mgr.node_up(1));           // it keeps serving...
  EXPECT_FALSE(mgr.node_accepting(1));   // ...but offers no capacity
  EXPECT_EQ(mgr.state(1), MembershipState::kUp);
  EXPECT_EQ(mgr.fallback_node(0), 2);    // reroutes skip the suspect

  // All-Suspect degrades gracefully: a slow Up node beats a dead one.
  fake.sick = {false, true, true};
  EXPECT_EQ(mgr.fallback_node(0), 1);

  // Recovery (or detaching the overlay) restores the node immediately.
  fake.sick = {false, false, true};
  EXPECT_TRUE(mgr.node_accepting(1));
  EXPECT_EQ(mgr.fallback_node(0), 1);
  mgr.set_health_view(nullptr);
  EXPECT_TRUE(mgr.node_accepting(2));
}

// --- ReliableLink suspect_after escalation ----------------------------------

struct EscalationOutcome {
  std::uint64_t peer_suspects = 0;
  std::uint64_t network_records = 0;
  std::string first_detail;
  bool timed_out = false;
};

EscalationOutcome run_escalation(int suspect_after) {
  chaos::ChaosPlan plan;
  plan.seed = 3;
  // Every DATA frame is dropped during the window: the victims' frames
  // retransmit on the backoff schedule until the window lifts.
  plan.net.drop_handler = kAmReliableData;
  plan.net.drop_handler_windows = {{.begin_step = 2, .end_step = 60}};
  chaos::Harness harness(plan);

  ClusterOptions options;
  options.nodes = 4;
  options.runtime.ooc.memory_budget_bytes = 256u << 10;
  options.runtime.reliable_net.enabled = true;
  // Tight backoff (2-tick base) so a frame crosses several retransmits
  // well inside the drop window.
  options.runtime.reliable_net.retransmit.base_delay =
      std::chrono::microseconds(200);
  options.runtime.reliable_net.suspect_after = suspect_after;
  options.spill = SpillMedium::kMemory;
  options.max_run_time = std::chrono::seconds(120);
  harness.instrument(options);
  Cluster cluster(options);

  chaos::HopWorkloadOptions wl;
  wl.objects_per_node = 4;
  wl.payload_words = 256;
  wl.routes = 16;
  wl.route_length = 6;
  wl.seed = 3;
  chaos::HopWorkload workload(cluster, wl);
  workload.create_objects();
  workload.inject();

  EscalationOutcome out;
  out.timed_out = cluster.run().timed_out;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    auto& rt = cluster.node(static_cast<net::NodeId>(i));
    if (rt.reliable_link() != nullptr) {
      out.peer_suspects += rt.reliable_link()->peer_suspects();
    }
    for (const auto& rec : rt.failure_ledger().snapshot()) {
      if (rec.op != FailureOp::kNetwork) continue;
      EXPECT_EQ(rec.resolution, FailureResolution::kRetried);
      if (out.network_records == 0) out.first_detail = rec.detail;
      ++out.network_records;
    }
  }
  return out;
}

TEST(ReliableSuspectEscalation, ThresholdCrossingsLandInTheFailureLedger) {
  const EscalationOutcome hit = run_escalation(/*suspect_after=*/3);
  ASSERT_FALSE(hit.timed_out);
  EXPECT_GE(hit.peer_suspects, 1u);
  ASSERT_GE(hit.network_records, 1u);
  // Pins the threshold: escalation fires exactly when a frame's consecutive
  // retransmit count reaches suspect_after, and reports that count.
  EXPECT_NE(hit.first_detail.find("retransmitted 3 times"), std::string::npos)
      << hit.first_detail;

  // Same fault schedule with escalation disabled: nothing may be reported.
  const EscalationOutcome off = run_escalation(/*suspect_after=*/0);
  ASSERT_FALSE(off.timed_out);
  EXPECT_EQ(off.peer_suspects, 0u);
  EXPECT_EQ(off.network_records, 0u);
}

// --- Adaptive RTO ------------------------------------------------------------

struct RtoOutcome {
  std::uint64_t digest = 0;
  std::uint64_t executed = 0;
  std::uint64_t expected = 0;
  std::uint64_t rtt_samples = 0;
  std::uint64_t srtt_max = 0;
  std::uint64_t retransmits = 0;
  bool timed_out = false;
};

RtoOutcome run_rto(bool faults, bool adaptive) {
  chaos::ChaosPlan plan;
  plan.seed = 9;
  if (faults) {
    plan.net.delay_rate = 0.25;
    plan.net.max_delay_steps = 8;
  }
  chaos::Harness harness(plan);
  ClusterOptions options;
  options.nodes = 4;
  options.runtime.ooc.memory_budget_bytes = 256u << 10;
  options.runtime.reliable_net.enabled = true;
  options.runtime.reliable_net.adaptive_rto = adaptive;
  options.spill = SpillMedium::kMemory;
  options.max_run_time = std::chrono::seconds(120);
  harness.instrument(options);
  Cluster cluster(options);
  chaos::HopWorkloadOptions wl;
  wl.objects_per_node = 4;
  wl.payload_words = 256;
  wl.routes = 16;
  wl.route_length = 6;
  wl.seed = 9;
  chaos::HopWorkload workload(cluster, wl);
  workload.create_objects();
  workload.inject();
  RtoOutcome out;
  out.timed_out = cluster.run().timed_out;
  out.executed = workload.executed_hops();
  out.expected = workload.expected_hops();
  out.digest = workload.state_digest();
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const auto* link =
        cluster.node(static_cast<net::NodeId>(i)).reliable_link();
    if (link == nullptr) continue;
    out.retransmits += link->retransmits();
    for (const auto& f : link->tx_flows()) {
      out.rtt_samples += f.rtt_samples;
      out.srtt_max = std::max(out.srtt_max, f.srtt_ticks);
    }
  }
  return out;
}

TEST(AdaptiveRto, EstimatorIsMaintainedEvenWithTheKnobOff) {
  // The Jacobson/Karels state is a health signal first and a schedule
  // second: a fault-free run with adaptive_rto off must still populate it.
  const RtoOutcome clean = run_rto(/*faults=*/false, /*adaptive=*/false);
  ASSERT_FALSE(clean.timed_out);
  EXPECT_EQ(clean.retransmits, 0u);
  EXPECT_GT(clean.rtt_samples, 0u);
  EXPECT_GE(clean.srtt_max, 1u);
}

TEST(AdaptiveRto, DelayHeavyRunYieldsByteIdenticalResults) {
  // Adaptive deadlines change the retransmit schedule, never the outcome:
  // under a delay-heavy plan the digest must match the fault-free twin.
  const RtoOutcome clean = run_rto(/*faults=*/false, /*adaptive=*/false);
  ASSERT_FALSE(clean.timed_out);
  const RtoOutcome adaptive = run_rto(/*faults=*/true, /*adaptive=*/true);
  ASSERT_FALSE(adaptive.timed_out);
  EXPECT_EQ(adaptive.executed, adaptive.expected);
  EXPECT_EQ(adaptive.digest, clean.digest);
  EXPECT_GT(adaptive.rtt_samples, 0u);
}

}  // namespace
}  // namespace mrts::core
