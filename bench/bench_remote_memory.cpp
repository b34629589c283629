// Ablation (paper conclusion, [33]): spilling to local disk vs to remote
// nodes' memory. With a disk-era device model, the network wins; the
// runtime code path is identical either way (the storage layer hides the
// medium, exactly as §II.D promises).

#include "bench_common.hpp"

using namespace mrts;
using namespace mrts::bench;

int main() {
  BenchReport report(
      "remote_memory",
      "Out-of-core medium ablation — local disk vs remote memory (OPCDM, "
      "4 nodes, 2 MB/node budget)",
      "remote memory outperforms a slow local disk as the swap medium; "
      "the application is unchanged (the storage layer hides the medium)");

  const auto problem = uniform_problem(80000);
  Table t({"medium", "time (s)", "spills", "loads", "disk/net busy %",
           "overlap %"});

  // Local disk with a 2011-era device model.
  {
    auto cluster = ooc_cluster(4, 2048, core::SpillMedium::kFile);
    cluster.device = storage::DeviceModel{
        .access_latency = std::chrono::microseconds(8000),
        .bandwidth_bytes_per_sec = 60e6};
    pumg::OpcdmOocConfig config{.cluster = cluster, .strips = 24};
    const auto r = pumg::run_opcdm_ooc(problem, config);
    t.row("local disk (8 ms, 60 MB/s)", r.report.total_seconds,
          r.objects_spilled, r.objects_loaded, r.report.disk_pct(),
          r.report.overlap_pct());
  }
  // Remote memory over a fast interconnect.
  {
    auto cluster = ooc_cluster(4, 2048, core::SpillMedium::kRemoteMemory);
    cluster.device = storage::DeviceModel{
        .access_latency = std::chrono::microseconds(300),
        .bandwidth_bytes_per_sec = 800e6};
    pumg::OpcdmOocConfig config{.cluster = cluster, .strips = 24};
    const auto r = pumg::run_opcdm_ooc(problem, config);
    t.row("remote memory (0.3 ms, 800 MB/s)", r.report.total_seconds,
          r.objects_spilled, r.objects_loaded, r.report.disk_pct(),
          r.report.overlap_pct());
  }
  report.add("media", std::move(t));
  return 0;
}
