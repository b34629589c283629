// Table V: ONUPDR computation / synchronization / disk-I/O breakdown and
// overlap. For NUPDR the paper reports synchronization (the refinement
// queue's coordination) in place of communication.
//
// The breakdown is reported from NodeCounters and recomputed from trace
// spans (shared clock reads) as a standing cross-check.

#include "bench_common.hpp"
#include "obs/trace.hpp"

using namespace mrts;
using namespace mrts::bench;

int main() {
  obs::TraceRecorder::global().enable();
  BenchReport report(
      "tab5_onupdr_overlap",
      "Table V — ONUPDR time breakdown and overlap (2 nodes, 4 MB/node, "
      "modeled disk: 5 ms access + 50 MB/s)",
      "computation, queue synchronization and disk I/O overlap "
      "substantially (paper: >50%, up to 62%, on large problems)");
  report.set_meta("nodes", "2");
  report.set_meta("budget_kb", "4096");

  Table t({"elements (10^3)", "total (s)", "comp %", "sync %", "disk %",
           "overlap %", "span comp %", "span sync %", "span disk %",
           "span ovl %"});
  for (std::size_t target : {40000, 80000, 160000, 320000}) {
    const auto problem = graded_problem(target);
    auto cluster = ooc_cluster(2, 4096, core::SpillMedium::kFile);
    cluster.device = storage::DeviceModel{
        .access_latency = std::chrono::microseconds(5000),
        .bandwidth_bytes_per_sec = 50e6};
    pumg::OnupdrOocConfig config{.cluster = cluster,
                                 .leaf_element_budget = 4000,
                                 .max_concurrent_leaves = 4};
    const auto ooc = pumg::run_onupdr_ooc(problem, config);
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
