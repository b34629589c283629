#pragma once

// Shared plumbing of the MRTS benchmark driver: options, order statistics,
// the metric sink, and the benchmark-side span log. Everything here runs on
// the single driver thread.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/counters.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// When main() started; setup_s of the first set-up is measured from here.
[[nodiscard]] Clock::time_point process_start();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Traced runs write their benchmark-side spans here (JSON).
  std::string spans_path;
};

/// Set-ups per run; setup_s reports their median.
inline constexpr int kSetups = 3;
/// Simulated nodes in every workload (the default pool_workers = 1 each).
inline constexpr std::size_t kNodes = 4;

/// Linear-interpolated quantile (0 for an empty sample).
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// splitmix64: derives independent sub-seeds from the workload seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// The Tables IV-VI overlap, 100 * (Comp + Comm + Disk - Total) / Total,
/// without RunBreakdown::overlap_pct's clamp at 0: a run whose busy times
/// do not overlap still shows how far it is from overlapping.
[[nodiscard]] inline double overlap_pct(const mrts::core::RunBreakdown& b) {
  if (b.total_seconds <= 0) return 0.0;
  return 100.0 *
         (b.comp_seconds + b.comm_seconds + b.disk_seconds - b.total_seconds) /
         b.total_seconds;
}

/// Process peak resident set (getrusage), MiB.
[[nodiscard]] double peak_rss_mb();

/// Per-layer samples gathered by a traced run. `per_unit` holds one value
/// per job (mesh) or per service trace, reported as its median; `fixed`
/// holds values computed once per run (probes, pooled percentiles). Only
/// the metrics a workload exercises are recorded; run.py reports the other
/// per-layer metrics of BENCHMARK.json as 0.
struct LayerSamples {
  std::map<std::string, std::vector<double>> per_unit;
  std::map<std::string, double> fixed;
  /// Mean spilled blob and mean fabric frame size per job or trace: they
  /// size the probes and are not metrics.
  std::vector<double> blob_bytes;
  std::vector<double> frame_bytes;

  void add(const std::string& name, double v) { per_unit[name].push_back(v); }
};

/// Pools the growth of one obs registry histogram over measured intervals,
/// so its statistics cover those intervals only (registry quantiles are
/// cumulative over the process).
class HistogramDelta {
 public:
  explicit HistogramDelta(const std::string& name);
  void begin();
  /// Adds the growth since begin(); returns the samples it added.
  std::uint64_t end();
  /// Upper bound of the bucket holding rank q, as HistogramMetric::quantile;
  /// buckets are powers of two, so this reads only 2^i - 1.
  [[nodiscard]] double quantile(double q) const;
  /// Exact mean of the pooled samples (0 when there are none).
  [[nodiscard]] double mean() const;

 private:
  static constexpr std::size_t kBuckets =
      mrts::obs::HistogramMetric::kBuckets;
  const mrts::obs::HistogramMetric* metric_;
  std::vector<std::uint64_t> base_ = std::vector<std::uint64_t>(kBuckets);
  std::vector<std::uint64_t> pooled_ = std::vector<std::uint64_t>(kBuckets);
  std::uint64_t base_sum_ = 0;
  std::uint64_t pooled_sum_ = 0;
};

/// Result of one run: correctness counts plus the metrics to print.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end samples (untraced run).
  std::vector<double> job_s;
  std::vector<double> us_per_element;
  std::vector<double> setup_s;
  LayerSamples layers;
};

/// Prints the final result line for `outcome`: correctness counts and the
/// end-to-end values when `trace` is false, the per-layer values otherwise.
void print_result(const Outcome& outcome, bool trace);

/// Benchmark-side spans: one per call into a layer (name, start, end,
/// parent), kept in memory and written out when the run ends.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    std::uint32_t parent = 0;  // 0 = root; ids are 1-based
    double start_us = 0.0;
    double end_us = 0.0;
  };

  /// RAII span around one layer call; a no-op while the log is disabled.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::uint32_t id_ = 0;
  };

  void enable() { enabled_ = true; }
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  // ids of the open spans, innermost last
};

[[nodiscard]] SpanLog& spans();

// --- workloads --------------------------------------------------------------

/// Closed-loop mesh workloads: oupdr_spill, oupdr_reread, opcdm_incore.
[[nodiscard]] bool is_mesh_workload(const std::string& name);
[[nodiscard]] Outcome run_mesh_workload(const Options& options);
/// Open-loop multi-tenant MeshingService workload: service_mix.
[[nodiscard]] Outcome run_service_workload(const Options& options);

// --- layer probes -------------------------------------------------------------
// Each probe times public calls of one layer at a size taken from the
// workload, repeats them, and stores the median under its metric name.

void probe_util(LayerSamples& out, std::size_t blob_bytes, std::uint64_t seed);
void probe_storage(LayerSamples& out, std::size_t blob_bytes,
                   std::uint64_t seed);
void probe_simnet(LayerSamples& out, std::size_t frame_bytes);
void probe_tasking(LayerSamples& out, std::size_t pool_workers);
void probe_empty_run(LayerSamples& out);

}  // namespace perfbench
