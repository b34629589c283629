// Table VI: OPCDM computation / communication / disk-I/O breakdown and
// overlap under fully asynchronous messaging.
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
      "tab6_opcdm_overlap",
      "Table VI — OPCDM time breakdown and overlap (4 nodes, 4 MB/node, "
      "modeled disk: 5 ms access + 50 MB/s)",
      "asynchronous small messages overlap well with disk I/O (paper: >50% "
      "overlap, up to 62%, on large problems)");
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
    // Overdecomposition scales with the problem (paper §II.C).
    const int strips = std::clamp<int>(static_cast<int>(target / 10000), 16, 64);
    pumg::OpcdmOocConfig config{.cluster = cluster, .strips = strips};
    const auto ooc = pumg::run_opcdm_ooc(problem, config);
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
