// Ablation (paper conclusion, [33]): spilling to local disk vs to remote
// nodes' memory. With a disk-era device model, the network wins; the
// runtime code path is identical either way (the storage layer hides the
// medium, exactly as §II.D promises). Each row is the median of kRuns runs,
// each on a fresh cluster; its counts and shares are those of the median
// run.

#include <algorithm>
#include <vector>

#include "bench_common.hpp"

using namespace mrts;
using namespace mrts::bench;

namespace {

constexpr int kRuns = 7;

}  // namespace

int main() {
  BenchReport report(
      "remote_memory",
      "Out-of-core medium ablation — local disk vs remote memory (OPCDM, "
      "4 nodes, 2 MB/node budget)",
      "remote memory outperforms a slow local disk as the swap medium; "
      "the application is unchanged (the storage layer hides the medium)");

  const auto problem = uniform_problem(80000);
  Table t({"medium", "ms (median)", "ms (range)", "spills", "loads",
           "disk/net busy %", "overlap %"});
  const auto row = [&](const char* label, core::SpillMedium medium,
                       storage::DeviceModel device) {
    auto cluster = ooc_cluster(4, 2048, medium);
    cluster.device = device;
    const pumg::OpcdmOocConfig config{.cluster = cluster, .strips = 24};
    Timings timings;
    std::vector<pumg::OocRunResult> runs;
    for (int run = 0; run < kRuns; ++run) {
      runs.push_back(pumg::run_opcdm_ooc(problem, config));
      timings.add_seconds(runs.back().report.total_seconds);
    }
    std::sort(runs.begin(), runs.end(), [](const auto& a, const auto& b) {
      return a.report.total_seconds < b.report.total_seconds;
    });
    const pumg::OocRunResult& r = runs[runs.size() / 2];
    t.row(label, timings.median_ms(), timings.range_ms(), r.objects_spilled,
          r.objects_loaded, r.report.disk_pct(), r.report.overlap_pct());
  };

  // Local disk with a 2011-era device model.
  row("local disk (8 ms, 60 MB/s)", core::SpillMedium::kFile,
      {.access_latency = std::chrono::microseconds(8000),
       .bandwidth_bytes_per_sec = 60e6});
  // Remote memory over a fast interconnect.
  row("remote memory (0.3 ms, 800 MB/s)", core::SpillMedium::kRemoteMemory,
      {.access_latency = std::chrono::microseconds(300),
       .bandwidth_bytes_per_sec = 800e6});
  report.add("media", std::move(t));
  return 0;
}
