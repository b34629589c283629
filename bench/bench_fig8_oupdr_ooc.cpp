// Figure 8: OUPDR on problems far larger than the memory budget — execution
// time must grow near-linearly with problem size (the runtime keeps the
// disk traffic off the critical path).

#include "bench_common.hpp"

using namespace mrts;
using namespace mrts::bench;

int main() {
  BenchReport report(
      "fig8_oupdr_ooc",
      "Figure 8 — OUPDR, out-of-core problem sizes (8x8 grid, 4 nodes, "
      "4 MB per node, file-backed spill)",
      "time grows almost linearly with problem size despite heavy swapping");

  Table t({"elements (10^3)", "time (s)", "us/element", "spills", "loads",
           "spilled MB", "peak in-core (KB)"});
  std::uint64_t retries = 0, recovered = 0, reinstalled = 0, poisoned = 0;
  for (std::size_t target : {40000, 80000, 160000, 320000}) {
    const auto problem = uniform_problem(target);
    pumg::OupdrOocConfig config{
        .cluster = ooc_cluster(4, 4096, core::SpillMedium::kFile),
        .nx = 8,
        .ny = 8};
    const auto ooc = pumg::run_oupdr_ooc(problem, config);
    t.row(ooc.mesh.elements / 1000, ooc.report.total_seconds,
          1e6 * ooc.report.total_seconds /
              static_cast<double>(ooc.mesh.elements),
          ooc.objects_spilled, ooc.objects_loaded, ooc.bytes_spilled >> 20,
          ooc.peak_in_core_bytes >> 10);
    retries += ooc.storage_retries;
    recovered += ooc.loads_recovered + ooc.checkpoint_recoveries;
    reinstalled += ooc.spills_reinstalled;
    poisoned += ooc.objects_poisoned;
  }
  report.add("scaling", std::move(t));
  // Self-healing storage path activity: a fault-free run must not trip the
  // recovery ladder, so anything nonzero here is a regression signal.
  report.set_meta("storage_retries", std::to_string(retries));
  report.set_meta("loads_recovered", std::to_string(recovered));
  report.set_meta("spills_reinstalled", std::to_string(reinstalled));
  report.set_meta("objects_poisoned", std::to_string(poisoned));
  return 0;
}
