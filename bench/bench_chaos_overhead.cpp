// Cost of the chaos harness: the deterministic single-threaded driver and
// the event trace exist for reproducibility, not speed, and this harness
// quantifies what they cost relative to the free-running threaded driver.
// Three configurations run the same hop workload:
//
//   threaded       — production driver, no instrumentation
//   deterministic  — seeded single-threaded sweeps, no fault plan
//   chaos          — deterministic + fault plan + full event trace
//
// The interesting number is the deterministic/threaded ratio: it bounds
// how much slower a chaos repro is than the failure it reproduces. Each row
// is the median of kRuns runs, each on a fresh cluster, so the threaded row
// is always a cluster's first run, which wakes the node workers.

#include "bench_common.hpp"
#include "chaos/chaos.hpp"
#include "chaos/workload.hpp"
#include "util/timer.hpp"

using namespace mrts;
using namespace mrts::bench;

namespace {

struct Config {
  const char* name;
  bool deterministic = false;
  bool faults = false;
  bool degraded = false;
};

constexpr int kRuns = 7;

struct Outcome {
  double seconds = 0.0;
  std::uint64_t hops = 0;
  std::size_t trace_events = 0;
};

Outcome run_config(const Config& cfg, std::size_t routes) {
  chaos::ChaosPlan plan;
  plan.seed = 42;
  if (cfg.faults) {
    plan.storage.store_failure_rate = 0.1;
    plan.storage.load_failure_rate = 0.1;
    plan.net.delay_rate = 0.1;
    plan.net.max_delay_steps = 6;
  }
  if (cfg.degraded) {
    plan.degraded.slow_disk_nodes = 1;
    plan.degraded.slow_disk_ops = 96;
    plan.degraded.slow_nic_nodes = 1;
    plan.degraded.slow_nic_steps = 48;
    plan.degraded.stall_bursts = 1;
  }
  chaos::Harness harness(plan);

  core::ClusterOptions options;
  options.nodes = 4;
  options.runtime.ooc.memory_budget_bytes = 256u << 10;
  options.runtime.storage_retry.max_retries = 16;
  options.spill = core::SpillMedium::kMemory;
  if (cfg.deterministic) {
    harness.instrument(options);
  }
  core::Cluster cluster(options);

  chaos::HopWorkloadOptions wl;
  wl.payload_words = 1024;
  wl.routes = routes;
  wl.route_length = 8;
  wl.migrate_every = 4;
  chaos::HopWorkload workload(cluster, wl);
  workload.create_objects();
  workload.inject();

  util::WallTimer timer;
  (void)cluster.run();
  Outcome out;
  out.seconds = timer.seconds();
  out.hops = workload.executed_hops();
  out.trace_events = harness.trace().lines();
  return out;
}

}  // namespace

int main() {
  BenchReport report("chaos_overhead", "chaos harness overhead",
                     "determinism and tracing cost wall time, never "
                     "correctness; the workload executes identical hop "
                     "counts in every mode");

  const Config configs[] = {
      {.name = "threaded"},
      {.name = "deterministic", .deterministic = true},
      {.name = "chaos", .deterministic = true, .faults = true},
      {.name = "chaos+degraded",
       .deterministic = true,
       .faults = true,
       .degraded = true},
  };
  for (const std::size_t routes : {64ul, 256ul}) {
    Table table({"driver", "routes", "ms (median)", "ms (range)", "hops",
                 "trace events", "vs threaded"});
    double base = 0.0;
    for (const Config& cfg : configs) {
      Timings timings;
      Outcome out;
      for (int run = 0; run < kRuns; ++run) {
        out = run_config(cfg, routes);
        timings.add_seconds(out.seconds);
      }
      const double ms = timings.median_ms();
      if (base == 0.0) base = ms;
      table.row(cfg.name, routes, ms, timings.range_ms(), out.hops,
                out.trace_events,
                util::format("{:.2f}x", base > 0 ? ms / base : 0.0));
    }
    report.add(util::format("routes={}", routes), std::move(table));
  }
  return 0;
}
