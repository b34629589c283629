// Gray-failure mitigation payoff: the same spill-heavy hop workload runs
// twice against a cluster whose node 2 is degraded-but-Up — its spill
// device charges 16x the modeled per-op latency and every frame it sends is
// parked for a few steps — once with every mitigation off and once with
// health scoring + Suspect steering + hedged replica reads + adaptive RTO
// on. Both runs finish with identical application state (the chaos sweeps
// pin that); what the mitigations buy is *time*: the reload-stall column
// (modeled microseconds the runtime spent waiting on primary spill loads)
// collapses because hedged reads serve the healthy mirror instead of the
// sick device, and the makespan column (deterministic sweeps) tracks the
// steering. CI gates on >= 20% reduction in at least one of the two.

#include "bench_common.hpp"
#include "chaos/workload.hpp"
#include "core/health.hpp"
#include "core/runtime.hpp"
#include "storage/replicated_store.hpp"

using namespace mrts;
using namespace mrts::bench;

namespace {

constexpr net::NodeId kSickNode = 2;

struct Outcome {
  std::uint64_t det_steps = 0;
  std::uint64_t load_stall_us = 0;  // modeled primary load latency, all nodes
  std::uint64_t hops = 0;
  std::uint64_t expected = 0;
  std::uint64_t digest = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t suspects = 0;
};

Outcome run_config(bool mitigate) {
  core::ClusterOptions options;
  options.nodes = 4;
  options.deterministic = true;
  options.runtime.ooc.memory_budget_bytes = 24u << 10;
  options.runtime.reliable_net.enabled = true;
  options.spill = core::SpillMedium::kMemory;
  options.replicate_spills = true;

  // One permanently sick node: 50us baseline per spill op everywhere,
  // 800us on node 2; every frame node 2 sends is held 3 steps.
  options.device = storage::DeviceModel{
      .access_latency = std::chrono::microseconds(50),
      .slow_windows = {{.node = kSickNode, .inflation = 16}}};
  net::NetFaultPlan net;
  net.degraded_links.push_back(net::NetFaultPlan::DegradedLink{
      .node = kSickNode, .begin_step = 1, .end_step = 1u << 30,
      .delay_steps = 3});
  options.net_faults = net;

  if (mitigate) {
    options.runtime.reliable_net.adaptive_rto = true;
    options.replication.hedged_reads = true;
    options.replication.hedge_latency_us = 200;  // 4x the healthy baseline
  }

  core::HealthMonitor monitor;
  if (mitigate) {
    monitor.instrument(options);
  }
  core::Cluster cluster(options);
  if (mitigate) {
    monitor.attach(cluster);
  }

  chaos::HopWorkloadOptions wl;
  wl.objects_per_node = 4;
  wl.payload_words = 512;
  wl.routes = 48;
  wl.route_length = 8;
  wl.migrate_every = 3;
  wl.seed = 17;
  chaos::HopWorkload workload(cluster, wl);
  workload.create_objects();
  workload.inject();
  const auto report = cluster.run();

  Outcome out;
  out.det_steps = report.det_steps;
  out.hops = workload.executed_hops();
  out.expected = workload.expected_hops();
  out.digest = workload.state_digest();
  out.suspects = monitor.stats().suspects;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const auto& backend = cluster.node(static_cast<net::NodeId>(i)).spill_backend();
    out.load_stall_us += backend.stats().virtual_load_latency_us;
    if (const auto* rep =
            dynamic_cast<const storage::ReplicatedStore*>(&backend)) {
      out.hedge_wins += rep->replicated_stats().hedge_wins;
    }
  }
  return out;
}

double reduction_pct(std::uint64_t off, std::uint64_t on) {
  if (off == 0) return 0.0;
  return 100.0 * (static_cast<double>(off) - static_cast<double>(on)) /
         static_cast<double>(off);
}

}  // namespace

int main() {
  BenchReport report("gray_failure", "gray-failure mitigation payoff",
                     "one degraded-but-Up node (16x slow disk, 3-step NIC "
                     "holds); mitigations trade its modeled stall time for "
                     "mirror reads and steering without changing results");

  const Outcome off = run_config(/*mitigate=*/false);
  const Outcome on = run_config(/*mitigate=*/true);

  Table table({"mitigations", "det steps", "reload stall (ms)", "hops",
               "hedge wins", "suspects"});
  table.row("off", off.det_steps, off.load_stall_us / 1000.0, off.hops,
            off.hedge_wins, off.suspects);
  table.row("on", on.det_steps, on.load_stall_us / 1000.0, on.hops,
            on.hedge_wins, on.suspects);
  report.add("one slow node of four", std::move(table));

  const double stall_red = reduction_pct(off.load_stall_us, on.load_stall_us);
  const double makespan_red = reduction_pct(off.det_steps, on.det_steps);
  const bool same_results =
      off.hops == off.expected && on.hops == on.expected &&
      off.digest == on.digest;
  report.set_meta("stall_reduction_pct", util::format("{:.2f}", stall_red));
  report.set_meta("makespan_reduction_pct",
                  util::format("{:.2f}", makespan_red));
  report.set_meta("hedge_wins", util::format("{}", on.hedge_wins));
  report.set_meta("suspects", util::format("{}", on.suspects));
  report.set_meta("results_identical", same_results ? "true" : "false");
  return 0;
}
