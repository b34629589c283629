// Open-loop service workload (service_mix): a MeshingService on 4 nodes
// with 4 tenants weighted 2:1:1:1 takes a Poisson stream of jobs from
// jobsim::make_open_loop_jobs. Arrivals are scheduled in service ticks, not
// wall time, so the stream does not slow down when the service does. A
// job's latency runs from the start of its arrival tick to the end of its
// completion tick, so a slow tick delays every job queued behind it.
//
// Each tick calls Cluster::run() once, so per-run driver cost and
// admission/preemption dominate. A run is a sequence of independent traces,
// each with its own sub-seed of the workload seed; latencies are pooled
// over them.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/counters.hpp"
#include "jobsim/jobsim.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/meshing_service.hpp"

namespace perfbench {
namespace {

using namespace mrts;

constexpr std::size_t kNodeBudget = 96u << 10;
constexpr std::uint64_t kHorizonTicks = 256;
constexpr std::uint64_t kWarmupHorizonTicks = 32;
constexpr std::uint32_t kTenants = 4;
/// Events each trace ring keeps per thread; the recorder is reset every
/// tick, and one tick records far fewer.
constexpr std::size_t kRingCapacity = std::size_t{1} << 12;

std::vector<jobsim::ServiceJob> make_jobs(std::uint64_t seed,
                                          std::uint64_t horizon) {
  SpanLog::Scope span(spans(), "jobsim.make_open_loop_jobs");
  jobsim::OpenLoopConfig cfg;
  cfg.horizon_ticks = horizon;
  cfg.arrivals_per_tick = 1.75;
  cfg.tenants = kTenants;
  cfg.max_width = static_cast<int>(kNodes);
  cfg.min_working_set_bytes = 16u << 10;
  cfg.max_working_set_bytes = 48u << 10;
  cfg.seed = seed;
  return jobsim::make_open_loop_jobs(cfg);
}

core::ClusterOptions cluster_options(std::size_t budget) {
  core::ClusterOptions co;
  co.nodes = kNodes;
  co.runtime.ooc.memory_budget_bytes = budget;
  co.spill = core::SpillMedium::kMemory;
  co.max_run_time = std::chrono::seconds(60);
  return co;
}

service::ServiceOptions service_options(bool preempt) {
  service::ServiceOptions so;
  so.tenants = kTenants;
  so.tenant_weights = {2.0, 1.0, 1.0, 1.0};
  so.max_queue_per_tenant = 0;  // rely on admission control, never shed
  so.preempt_enabled = preempt;
  return so;
}

/// The no-progress tick cap MeshingService::run_open_loop applies.
std::uint64_t tick_cap(std::uint64_t last_arrival, std::uint64_t total_phases) {
  return last_arrival + 16 * (total_phases + 8) + 64;
}

/// Digest of `job` run alone and uninterrupted on an amply provisioned
/// cluster; a busy run's digest must match even if it was preempted. A twin
/// that does not drain within the tick cap reads 0, which no job matches.
std::uint64_t solo_twin_digest(jobsim::ServiceJob job) {
  SpanLog::Scope span(spans(), "service.solo_twin");
  core::Cluster cluster(cluster_options(1u << 20));
  service::MeshingService svc(cluster, service_options(false));
  job.arrival_tick = 0;
  svc.submit(job);
  const std::uint64_t cap = tick_cap(0, job.phases);
  while (svc.tick()) {
    if (svc.current_tick() >= cap) return 0;
  }
  return svc.job_digest(job.id);
}

struct Trace {
  std::vector<double> latency_s;
  std::vector<double> tick_ms;
  std::vector<std::uint64_t> admit_ticks;
  double wall_s = 0.0;  // summed tick wall time
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t phase_hits = 0;
  std::uint64_t failed = 0;  // jobs failing a check
  core::BusyTimes busy[kNodes];
  std::uint64_t spills = 0, loads = 0, elided = 0;
  std::uint64_t bytes_spilled = 0, bytes_loaded = 0, bytes_elided = 0;
  std::uint64_t msgs = 0, inline_deliveries = 0, migrations = 0;
  net::FabricStats fabric;
  double span_comp_s = 0.0;  // traced: node-averaged comp span time
  std::uint64_t dropped = 0;
};

/// Runs one open-loop trace to drain, then checks it (outside the timed
/// ticks). With `traced`, the global TraceRecorder is enabled around every
/// tick.
Trace run_trace(std::uint64_t seed, std::uint64_t horizon, bool traced) {
  SpanLog::Scope span(spans(), traced ? "bench.trace_traced" : "bench.trace");
  std::vector<jobsim::ServiceJob> jobs = make_jobs(seed, horizon);
  Trace t;
  core::Cluster cluster(cluster_options(kNodeBudget));
  service::MeshingService svc(cluster, service_options(true));

  std::uint64_t total_phases = 0, last_arrival = 0;
  for (const auto& j : jobs) {
    total_phases += j.phases;
    last_arrival = std::max(last_arrival, j.arrival_tick);
  }
  const std::uint64_t cap = tick_cap(last_arrival, total_phases);

  obs::TraceRecorder& tracer = obs::TraceRecorder::global();
  std::vector<Clock::time_point> arrival(jobs.size());
  std::vector<std::size_t> outstanding;
  std::size_t next = 0;
  bool stalled = false;
  while (true) {
    const auto tick_start = Clock::now();
    while (next < jobs.size() &&
           jobs[next].arrival_tick <= svc.current_tick()) {
      SpanLog::Scope span(spans(), "service.submit");
      svc.submit(jobs[next]);
      arrival[next] = tick_start;
      outstanding.push_back(next++);
    }
    if (next >= jobs.size() && svc.drained()) break;
    if (svc.current_tick() >= cap) {
      stalled = true;
      break;
    }
    if (traced) tracer.enable({.ring_capacity = kRingCapacity});
    {
      SpanLog::Scope span(spans(), "service.tick");
      (void)svc.tick();
    }
    const auto tick_end = Clock::now();
    if (traced) {
      tracer.disable();
      t.dropped += tracer.total_dropped();
      for (std::size_t n = 0; n < kNodes; ++n) {
        t.span_comp_s += tracer.busy_seconds(n, obs::Cat::kComp) /
                         static_cast<double>(kNodes);
      }
    }
    t.tick_ms.push_back(1e3 * seconds_between(tick_start, tick_end));
    t.wall_s += seconds_between(tick_start, tick_end);
    std::erase_if(outstanding, [&](std::size_t k) {
      if (svc.job_digest(jobs[k].id) == 0) return false;
      t.latency_s.push_back(seconds_between(arrival[k], tick_end));
      return true;
    });
  }
  if (traced) tracer.reset();

  t.submitted = svc.submitted_count();
  t.completed = svc.completed_count();
  t.preemptions = svc.preempted_count();
  t.phase_hits = svc.executed_phase_hits();
  t.admit_ticks = svc.admission_latencies();
  for (std::size_t n = 0; n < kNodes; ++n) {
    const core::NodeCounters& c = cluster.node(static_cast<net::NodeId>(n)).counters();
    t.busy[n] = {c.comp_time.seconds(), c.comm_time.seconds(),
                 c.disk_time.seconds()};
  }
  const auto sum = [&](auto get) { return cluster.sum_counters(get); };
  t.spills = sum([](const core::NodeCounters& c) { return c.objects_spilled.load(); });
  t.loads = sum([](const core::NodeCounters& c) { return c.objects_loaded.load(); });
  t.elided = sum([](const core::NodeCounters& c) { return c.spills_elided.load(); });
  t.bytes_spilled = sum([](const core::NodeCounters& c) { return c.bytes_spilled.load(); });
  t.bytes_loaded = sum([](const core::NodeCounters& c) { return c.bytes_loaded.load(); });
  t.bytes_elided = sum([](const core::NodeCounters& c) { return c.bytes_spill_elided.load(); });
  t.msgs = sum([](const core::NodeCounters& c) { return c.messages_executed.load(); });
  t.inline_deliveries = sum([](const core::NodeCounters& c) { return c.inline_deliveries.load(); });
  t.migrations = sum([](const core::NodeCounters& c) { return c.migrations_in.load(); });
  t.fabric = cluster.fabric().stats();

  // Checks: the trace drained without stalling or shedding, every job
  // completed exactly once with every posted phase executed, and one
  // sampled job per tenant ends digest-equal to its uninterrupted twin.
  std::string why;
  if (stalled || !svc.drained() || !outstanding.empty()) {
    why = "stalled before draining";
  } else if (svc.shed_count() != 0) {
    why = "jobs shed";
  } else if (t.completed != t.submitted || t.submitted != jobs.size()) {
    why = "completed != submitted";
  } else if (svc.executed_phase_hits() != svc.expected_phase_hits()) {
    why = "phase handler executions lost or duplicated";
  }
  if (!why.empty()) {
    t.failed = jobs.size();
  } else {
    for (std::uint32_t tenant = 0; tenant < kTenants; ++tenant) {
      std::vector<const jobsim::ServiceJob*> mine;
      for (const auto& j : jobs) {
        if (j.tenant == tenant) mine.push_back(&j);
      }
      if (mine.empty()) continue;
      const jobsim::ServiceJob& pick = *mine[mix_seed(seed, tenant) % mine.size()];
      if (svc.job_digest(pick.id) != solo_twin_digest(pick)) {
        ++t.failed;
        why = "digest differs from the uninterrupted twin";
      }
    }
  }
  if (!why.empty()) {
    std::fprintf(stderr, "perfbench: service_mix trace %llu failed: %s\n",
                 static_cast<unsigned long long>(seed), why.c_str());
  }
  return t;
}

void record_layers(LayerSamples& l, const Trace& t) {
  const auto mb = [](std::uint64_t b) {
    return static_cast<double>(b) / static_cast<double>(1u << 20);
  };
  const core::RunBreakdown b = core::make_breakdown(t.wall_s, t.busy);
  l.add("core.ooc.spills", static_cast<double>(t.spills));
  l.add("core.ooc.loads", static_cast<double>(t.loads));
  l.add("core.ooc.elided", static_cast<double>(t.elided));
  l.add("core.ooc.spill_mb", mb(t.bytes_spilled));
  l.add("core.ooc.load_mb", mb(t.bytes_loaded));
  l.add("core.ooc.elision_ratio",
        core::elision_ratio(t.bytes_spilled, t.bytes_elided));
  l.add("core.ooc.disk_busy_pct", b.disk_pct());
  l.add("core.control.msgs", static_cast<double>(t.msgs));
  l.add("core.control.inline", static_cast<double>(t.inline_deliveries));
  l.add("core.control.migrations", static_cast<double>(t.migrations));
  l.add("core.control.comm_busy_pct", b.comm_pct());
  l.add("core.control.overlap_pct", overlap_pct(b));
  l.add("core.control.wait_pct", std::max(0.0, 100.0 - b.comp_pct()));
  l.add("simnet.frames", static_cast<double>(t.fabric.messages_sent));
  l.add("simnet.mb", mb(t.fabric.bytes_sent));
  l.add("tasking.comp_busy_pct",
        t.wall_s > 0 ? 100.0 * t.span_comp_s / t.wall_s : 0.0);
  l.add("service.preemptions", static_cast<double>(t.preemptions));
  l.add("service.completed", static_cast<double>(t.completed));
  if (t.spills > 0) {
    l.blob_bytes.push_back(static_cast<double>(t.bytes_spilled) /
                           static_cast<double>(t.spills));
  }
  if (t.fabric.messages_sent > 0) {
    l.frame_bytes.push_back(static_cast<double>(t.fabric.bytes_sent) /
                            static_cast<double>(t.fabric.messages_sent));
  }
}

void account(Outcome& out, const Trace& t) {
  out.attempted += t.submitted;
  out.failed += t.failed;
}

}  // namespace

Outcome run_service_workload(const Options& options) {
  Outcome out;
  // Set-up, repeated: job generation, cluster and service construction and
  // one short untimed, checked warm-up trace.
  for (int s = 0; s < kSetups; ++s) {
    const auto t0 = s == 0 ? process_start() : Clock::now();
    SpanLog::Scope span(spans(), "bench.setup");
    const Trace warm =
        run_trace(mix_seed(options.seed, 1000 + s), kWarmupHorizonTicks, false);
    out.setup_s.push_back(seconds_between(t0, Clock::now()));
    account(out, warm);
  }

  // Traced runs replay each sub-seed untraced and then traced, so the
  // tracing overhead compares identical job streams.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  HistogramDelta store_hist("storage.op_latency_us.store");
  HistogramDelta load_hist("storage.op_latency_us.load");
  LayerSamples& l = out.layers;
  std::vector<double> untraced_latency, traced_latency, tick_ms;
  std::vector<double> admit_ticks;
  std::uint64_t dropped = 0;
  const auto m0 = Clock::now();
  for (std::uint64_t i = 0;
       i < 1 || seconds_between(m0, Clock::now()) < options.seconds; ++i) {
    const std::uint64_t sub_seed = mix_seed(options.seed, i);
    const Trace t = run_trace(sub_seed, kHorizonTicks, false);
    account(out, t);
    out.job_s.insert(out.job_s.end(), t.latency_s.begin(), t.latency_s.end());
    out.us_per_element.push_back(
        1e6 * t.wall_s / static_cast<double>(std::max<std::uint64_t>(t.phase_hits, 1)));
    if (!options.trace) continue;
    untraced_latency.insert(untraced_latency.end(), t.latency_s.begin(),
                            t.latency_s.end());

    const obs::MetricsSnapshot base = registry.snapshot();
    store_hist.begin();
    load_hist.begin();
    const Trace traced = run_trace(sub_seed, kHorizonTicks, true);
    const std::uint64_t store_ops = store_hist.end();
    const std::uint64_t load_ops = load_hist.end();
    const obs::MetricsSnapshot delta = registry.snapshot().delta(base);
    account(out, traced);
    dropped += traced.dropped;
    traced_latency.insert(traced_latency.end(), traced.latency_s.begin(),
                          traced.latency_s.end());
    tick_ms.insert(tick_ms.end(), traced.tick_ms.begin(), traced.tick_ms.end());
    for (std::uint64_t a : traced.admit_ticks) {
      admit_ticks.push_back(static_cast<double>(a));
    }
    record_layers(l, traced);
    l.add("storage.store_ops", static_cast<double>(store_ops));
    l.add("storage.load_ops", static_cast<double>(load_ops));
    const auto counter = [&](const char* name) {
      const auto* e = delta.find(name);
      return e == nullptr ? 0.0 : e->value;
    };
    const double hits = counter("ooc.hits");
    const double misses = counter("ooc.misses");
    l.add("core.ooc.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0);
  }

  if (options.trace) {
    SpanLog::Scope span(spans(), "bench.probes");
    l.fixed["storage.store_us_p50"] = store_hist.quantile(0.50);
    l.fixed["storage.store_us_p99"] = store_hist.quantile(0.99);
    l.fixed["storage.load_us_p50"] = load_hist.quantile(0.50);
    l.fixed["storage.load_us_p99"] = load_hist.quantile(0.99);
    l.fixed["storage.store_us_mean"] = store_hist.mean();
    l.fixed["storage.load_us_mean"] = load_hist.mean();
    l.fixed["service.tick_ms_p50"] = quantile(tick_ms, 0.50);
    l.fixed["service.tick_ms_p99"] = quantile(tick_ms, 0.99);
    l.fixed["service.admit_ticks_p99"] = quantile(admit_ticks, 0.99);
    l.fixed["obs.trace_overhead_pct"] =
        100.0 * (median(traced_latency) / median(untraced_latency) - 1.0);
    l.fixed["obs.trace_dropped"] = static_cast<double>(dropped);

    const double blob = median(l.blob_bytes);
    const std::size_t blob_bytes =
        blob > 0 ? static_cast<std::size_t>(blob) : std::size_t{16} << 10;
    probe_util(l, blob_bytes, options.seed);
    probe_storage(l, blob_bytes, options.seed);
    probe_simnet(l, static_cast<std::size_t>(median(l.frame_bytes)));
    probe_tasking(l, core::RuntimeOptions{}.pool_workers);
    probe_empty_run(l);
  }

  std::fprintf(stderr,
               "perfbench: service_mix seed=%llu jobs=%zu job_s_p50=%.4f "
               "job_s_p90=%.4f setup_s:",
               static_cast<unsigned long long>(options.seed), out.job_s.size(),
               median(out.job_s), quantile(out.job_s, 0.9));
  for (double s : out.setup_s) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, "\n");
  return out;
}

}  // namespace perfbench
