// Closed-loop mesh workloads: one client runs back-to-back out-of-core
// meshing jobs (pumg::run_oupdr_ooc / run_opcdm_ooc) on 4 simulated nodes
// and checks every job's output after timing it.
//
//   oupdr_spill   OUPDR, 8x8 grid, 2 MiB per node, file spill: the
//                 write-plus-read spill path does most of the work.
//   oupdr_reread  the same grid and budget at half the size with six
//                 read-only query rounds: mostly reloads of clean objects.
//   opcdm_incore  OPCDM, 32 strips, 512 MiB per node: nothing spills, so
//                 mesh kernels and the computing layer dominate.

#include <array>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "core/counters.hpp"
#include "mesh/pslg.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pumg/ooc.hpp"
#include "util/archive.hpp"

namespace perfbench {
namespace {

using namespace mrts;

enum class Method { kOupdr, kOpcdm };

struct MeshSpec {
  const char* name;
  Method method;
  std::size_t target_elements;
  std::size_t budget_bytes;  // per node
  std::size_t query_rounds;
  /// Inside-element count of the finished mesh for each of the eight size
  /// jitters (seed % 8). Repeated threaded runs reproduce them exactly; a
  /// job that differs has produced a different mesh.
  std::array<std::size_t, 8> expected_elements;
};

constexpr int kGrid = 8;
constexpr int kStrips = 32;

constexpr MeshSpec kSpecs[] = {
    {"oupdr_spill", Method::kOupdr, 350000, 2u << 20, 0,
     {761809, 763321, 764581, 766245, 767631, 768836, 770300, 771948}},
    {"oupdr_reread", Method::kOupdr, 175000, 2u << 20, 6,
     {384643, 385310, 386114, 386898, 387630, 388239, 389255, 389827}},
    {"opcdm_incore", Method::kOpcdm, 350000, 512u << 20, 0,
     {774069, 775465, 776883, 778291, 779783, 781141, 782175, 783610}},
};

/// Events each trace ring keeps per thread; sized so one job drops none.
constexpr std::size_t kRingCapacity = std::size_t{1} << 16;

const MeshSpec* find_spec(const std::string& name) {
  for (const MeshSpec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

/// The uniform unit-square problem at the workload's size, scaled by a
/// seed-chosen jitter of at most +-0.7% so each seed meshes its own input.
pumg::MeshProblem make_problem(const MeshSpec& spec, std::uint64_t seed) {
  SpanLog::Scope span(spans(), "mesh.make_problem");
  const double jitter = 1.0 + 0.002 * (static_cast<double>(seed % 8) - 3.5);
  const double target = static_cast<double>(spec.target_elements) * jitter;
  // elements ~ area / (0.433 h^2) with area 1.
  const double h = std::sqrt(1.0 / (0.433 * target));
  return pumg::MeshProblem{
      mesh::make_unit_square(),
      {.min_angle_deg = 20.0, .size_field = mesh::uniform_size(h)}};
}

struct Job {
  pumg::OocRunResult result;
  std::vector<pumg::Subdomain> subs;
  pumg::Decomposition decomp;
  double wall_s = 0.0;
};

Job run_job(const MeshSpec& spec, const pumg::MeshProblem& problem) {
  core::ClusterOptions cluster;
  cluster.nodes = kNodes;
  cluster.runtime.ooc.memory_budget_bytes = spec.budget_bytes;
  cluster.spill = core::SpillMedium::kFile;
  cluster.max_run_time = std::chrono::seconds(120);

  Job job;
  const auto t0 = Clock::now();
  if (spec.method == Method::kOupdr) {
    SpanLog::Scope span(spans(), "pumg.run_oupdr_ooc");
    job.result = pumg::run_oupdr_ooc(problem,
                                     {.cluster = cluster,
                                      .nx = kGrid,
                                      .ny = kGrid,
                                      .query_rounds = spec.query_rounds},
                                     &job.subs, &job.decomp);
  } else {
    SpanLog::Scope span(spans(), "pumg.run_opcdm_ooc");
    job.result = pumg::run_opcdm_ooc(
        problem, {.cluster = cluster, .strips = kStrips}, &job.subs,
        &job.decomp);
  }
  job.wall_s = seconds_between(t0, Clock::now());
  return job;
}

/// Output checks (outside the timed interval). Returns why the job failed,
/// or an empty string.
std::string check_job(const MeshSpec& spec, std::uint64_t seed,
                      const Job& job) {
  const pumg::OocRunResult& r = job.result;
  if (r.report.timed_out) return "run timed out";
  if (r.objects_poisoned != 0) return "objects poisoned";
  if (r.storage_retries != 0) return "storage retries on a fault-free run";
  if (r.dirty_left != 0 || r.pending_left != 0) return "work left at quiescence";
  {
    SpanLog::Scope span(spans(), "pumg.check_conformity");
    if (std::string why = pumg::check_conformity(job.decomp, job.subs);
        !why.empty()) {
      return "not conforming: " + why;
    }
  }
  double area = 0.0;
  for (const pumg::Subdomain& s : job.subs) area += s.inside_area();
  if (std::abs(area - 1.0) > 1e-9 || std::abs(r.mesh.total_area - 1.0) > 1e-9) {
    return "meshed area differs from the domain";
  }
  if (r.mesh.below_goal > r.mesh.elements / 200) {
    return "too many elements below the angle goal";
  }
  const std::size_t expected = spec.expected_elements[seed % 8];
  if (r.mesh.elements != expected) {
    return "element count " + std::to_string(r.mesh.elements) +
           " differs from the pinned " + std::to_string(expected);
  }
  return {};
}

void record_check(Outcome& out, const MeshSpec& spec, std::uint64_t seed,
                  const Job& job) {
  ++out.attempted;
  if (const std::string why = check_job(spec, seed, job); !why.empty()) {
    ++out.failed;
    std::fprintf(stderr, "perfbench: %s job failed: %s\n", spec.name,
                 why.c_str());
  }
}

double to_mb(std::uint64_t bytes) {
  return static_cast<double>(bytes) / static_cast<double>(1u << 20);
}

/// Per-layer samples of one traced job.
void record_layers(LayerSamples& l, const Job& job,
                   const obs::MetricsSnapshot& delta, std::uint64_t store_ops,
                   std::uint64_t load_ops) {
  const pumg::OocRunResult& r = job.result;
  const core::RunReport& rep = r.report;
  const auto counter = [&](const char* name) {
    const auto* e = delta.find(name);
    return e == nullptr ? 0.0 : e->value;
  };
  l.add("storage.store_ops", static_cast<double>(store_ops));
  l.add("storage.load_ops", static_cast<double>(load_ops));
  l.add("core.ooc.spills", static_cast<double>(r.objects_spilled));
  l.add("core.ooc.loads", static_cast<double>(r.objects_loaded));
  l.add("core.ooc.elided", static_cast<double>(r.spills_elided));
  l.add("core.ooc.spill_mb", to_mb(r.bytes_spilled));
  l.add("core.ooc.load_mb", to_mb(r.bytes_loaded));
  const double hits = counter("ooc.hits");
  const double misses = counter("ooc.misses");
  l.add("core.ooc.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0);
  l.add("core.ooc.elision_ratio",
        core::elision_ratio(r.bytes_spilled, r.bytes_spill_elided));
  l.add("core.ooc.disk_busy_pct", rep.disk_pct());
  l.add("core.control.msgs", static_cast<double>(r.messages_executed));
  l.add("core.control.inline", static_cast<double>(r.inline_deliveries));
  l.add("core.control.migrations", static_cast<double>(r.migrations));
  l.add("core.control.comm_busy_pct", rep.comm_pct());
  l.add("core.control.overlap_pct", overlap_pct(rep));
  l.add("core.control.wait_pct", std::max(0.0, 100.0 - rep.comp_pct()));
  l.add("simnet.frames", static_cast<double>(rep.fabric.messages_sent));
  l.add("simnet.mb", to_mb(rep.fabric.bytes_sent));
  l.add("tasking.comp_busy_pct",
        core::make_breakdown(rep.total_seconds, r.span_busy).comp_pct());
  l.add("pumg.serial_s", job.wall_s - rep.total_seconds);
  if (r.objects_spilled > 0) {
    l.blob_bytes.push_back(static_cast<double>(r.bytes_spilled) /
                           static_cast<double>(r.objects_spilled));
  }
  if (rep.fabric.messages_sent > 0) {
    l.frame_bytes.push_back(static_cast<double>(rep.fabric.bytes_sent) /
                            static_cast<double>(rep.fabric.messages_sent));
  }
}

/// Serialized size of the median subdomain: the probe size when a
/// workload spills nothing.
std::size_t median_object_bytes(const std::vector<pumg::Subdomain>& subs) {
  std::vector<double> sizes;
  for (const pumg::Subdomain& s : subs) {
    util::ByteWriter w;
    s.serialize(w);
    sizes.push_back(static_cast<double>(w.size()));
  }
  return static_cast<std::size_t>(median(sizes));
}

}  // namespace

bool is_mesh_workload(const std::string& name) {
  return find_spec(name) != nullptr;
}

Outcome run_mesh_workload(const Options& options) {
  const MeshSpec* found = find_spec(options.workload);
  if (found == nullptr) {
    throw std::invalid_argument("unknown mesh workload " + options.workload);
  }
  const MeshSpec& spec = *found;
  Outcome out;

  // Set-up, repeated: problem construction, spill directories and one
  // untimed, checked warm-up job.
  pumg::MeshProblem problem;
  Job last;
  for (int s = 0; s < kSetups; ++s) {
    const auto t0 = s == 0 ? process_start() : Clock::now();
    SpanLog::Scope span(spans(), "bench.setup");
    problem = make_problem(spec, options.seed);
    last = run_job(spec, problem);
    out.setup_s.push_back(seconds_between(t0, Clock::now()));
    record_check(out, spec, options.seed, last);
  }

  // Closed loop. A traced run alternates untraced and traced jobs so the
  // tracing overhead is measured on neighbouring jobs.
  obs::TraceRecorder& tracer = obs::TraceRecorder::global();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  HistogramDelta store_hist("storage.op_latency_us.store");
  HistogramDelta load_hist("storage.op_latency_us.load");
  LayerSamples& l = out.layers;
  std::vector<double> traced_job_s, untraced_parallel_s;
  std::uint64_t dropped = 0;
  const auto m0 = Clock::now();
  for (std::size_t i = 0;
       i < 2 || seconds_between(m0, Clock::now()) < options.seconds; ++i) {
    const bool traced = options.trace && i % 2 == 1;
    SpanLog::Scope span(spans(), traced ? "bench.job_traced" : "bench.job");
    if (!traced) {
      last = run_job(spec, problem);
      untraced_parallel_s.push_back(last.result.report.total_seconds);
      out.job_s.push_back(last.wall_s);
      out.us_per_element.push_back(
          1e6 * last.result.report.total_seconds /
          static_cast<double>(std::max<std::size_t>(last.result.mesh.elements, 1)));
    } else {
      tracer.enable({.ring_capacity = kRingCapacity});
      const obs::MetricsSnapshot base = registry.snapshot();
      store_hist.begin();
      load_hist.begin();
      last = run_job(spec, problem);
      const std::uint64_t store_ops = store_hist.end();
      const std::uint64_t load_ops = load_hist.end();
      const obs::MetricsSnapshot delta = registry.snapshot().delta(base);
      tracer.disable();
      dropped += tracer.total_dropped();
      traced_job_s.push_back(last.wall_s);
      record_layers(l, last, delta, store_ops, load_ops);
    }
    record_check(out, spec, options.seed, last);
  }
  tracer.reset();

  if (options.trace) {
    SpanLog::Scope span(spans(), "bench.probes");
    l.fixed["storage.store_us_p50"] = store_hist.quantile(0.50);
    l.fixed["storage.store_us_p99"] = store_hist.quantile(0.99);
    l.fixed["storage.load_us_p50"] = load_hist.quantile(0.50);
    l.fixed["storage.load_us_p99"] = load_hist.quantile(0.99);
    l.fixed["storage.store_us_mean"] = store_hist.mean();
    l.fixed["storage.load_us_mean"] = load_hist.mean();
    l.fixed["obs.trace_overhead_pct"] =
        100.0 * (median(traced_job_s) / median(out.job_s) - 1.0);
    l.fixed["obs.trace_dropped"] = static_cast<double>(dropped);

    const double blob = median(l.blob_bytes);
    const std::size_t blob_bytes = blob > 0
                                       ? static_cast<std::size_t>(blob)
                                       : median_object_bytes(last.subs);
    probe_util(l, blob_bytes, options.seed);
    probe_storage(l, blob_bytes, options.seed);
    probe_simnet(l, static_cast<std::size_t>(median(l.frame_bytes)));
    probe_tasking(l, core::RuntimeOptions{}.pool_workers);
    probe_empty_run(l);

    // Plain single-threaded baseline on the same problem.
    const auto t0 = Clock::now();
    pumg::MeshRunStats seq;
    {
      SpanLog::Scope span(spans(), "mesh.run_sequential");
      seq = pumg::run_sequential(problem);
    }
    const double seq_s = seconds_between(t0, Clock::now());
    ++out.attempted;
    if (seq.elements == 0 || std::abs(seq.total_area - 1.0) > 1e-9) {
      ++out.failed;
      std::fprintf(stderr, "perfbench: sequential baseline failed\n");
    }
    l.fixed["mesh.seq_us_per_element"] =
        1e6 * seq_s / static_cast<double>(std::max<std::size_t>(seq.elements, 1));
    l.fixed["mesh.speedup"] = seq_s / median(untraced_parallel_s);
  }

  std::fprintf(stderr,
               "perfbench: %s seed=%llu elements=%zu spills=%llu loads=%llu "
               "elided=%llu setup_s:",
               spec.name, static_cast<unsigned long long>(options.seed),
               last.result.mesh.elements,
               static_cast<unsigned long long>(last.result.objects_spilled),
               static_cast<unsigned long long>(last.result.objects_loaded),
               static_cast<unsigned long long>(last.result.spills_elided));
  for (double s : out.setup_s) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, " untraced job_s:");
  for (double j : out.job_s) std::fprintf(stderr, " %.3f", j);
  std::fprintf(stderr, "\n");
  return out;
}

}  // namespace perfbench
