// Table IV: OUPDR computation / communication / disk-I/O breakdown as
// percentages of total execution time, and the overlap metric
// Overlap = (Comp + Comm + Disk - Total) / Total.
//
// The breakdown is reported twice: once from the NodeCounters time
// accumulators (the paper's accounting) and once recomputed from trace
// spans (obs::TraceRecorder busy aggregates). The two derivations share
// clock reads, so they must agree within rounding — a standing
// cross-check that the instrumentation charges every interval.

#include "bench_common.hpp"
#include "obs/trace.hpp"

using namespace mrts;
using namespace mrts::bench;

int main() {
  obs::TraceRecorder::global().enable();
  BenchReport report(
      "tab4_oupdr_overlap",
      "Table IV — OUPDR time breakdown and overlap (4 nodes, 4 MB/node, "
      "modeled disk: 5 ms access + 50 MB/s)",
      "computation, communication and disk I/O overlap substantially; the "
      "paper reports >50% overlap (up to 62%) for large problems");
  report.set_meta("nodes", "4");
  report.set_meta("budget_kb", "4096");

  Table t({"elements (10^3)", "total (s)", "comp %", "comm %", "disk %",
           "overlap %", "span comp %", "span comm %", "span disk %",
           "span ovl %"});
  for (std::size_t target : {40000, 80000, 160000, 320000}) {
    const auto problem = uniform_problem(target);
    auto cluster = ooc_cluster(4, 4096, core::SpillMedium::kFile);
    cluster.device = storage::DeviceModel{
        .access_latency = std::chrono::microseconds(5000),
        .bandwidth_bytes_per_sec = 50e6};
    pumg::OupdrOocConfig config{.cluster = cluster, .nx = 8, .ny = 8};
    const auto ooc = pumg::run_oupdr_ooc(problem, config);
    const auto span =
        core::make_breakdown(ooc.report.total_seconds, ooc.span_busy);
    t.row(ooc.mesh.elements / 1000, ooc.report.total_seconds,
          ooc.report.comp_pct(), ooc.report.comm_pct(), ooc.report.disk_pct(),
          ooc.report.overlap_pct(), span.comp_pct(), span.comm_pct(),
          span.disk_pct(), span.overlap_pct());
  }
  report.add("breakdown", std::move(t));
  return 0;
}
