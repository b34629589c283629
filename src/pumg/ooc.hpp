#pragma once

// Out-of-core ports of the three PUMG methods onto the MRTS runtime
// (paper §III and [1][2]):
//
//   OPCDM  — every strip is a mobile object; boundary-split batches travel
//            as one-sided messages directly between strip objects; the run
//            ends at natural MRTS quiescence. Fully asynchronous.
//   OUPDR  — grid cells are mobile objects; a coordinator object drives
//            bulk-synchronous phases: cells refine, report "done" with the
//            set of neighbours they dirtied, the coordinator launches the
//            next phase. Structured communication + global synchronization.
//   ONUPDR — quadtree leaves are mobile objects; a refinement-queue object
//            (locked in-core, as the paper prescribes) owns the scheduling:
//            it dispatches one leaf at a time per free neighbourhood,
//            carrying pending boundary splits in the refine message, and
//            workers report dirtied leaves back via `update` messages.
//            Optionally (paper §III "Findings") each dispatch uses a
//            multicast mobile message to collect the leaf and its buffer
//            in-core on one node first, and boundary splits are then
//            applied through direct inline handler calls.
//
// All cell objects serialize their full subdomain triangulation, so the
// out-of-core layer can swap any of them to disk between messages.
//
// After the parallel phase, the mesh is collected where the cells live.
// Each cell is locked in core on its owner and sent one collect message.
// Its handler runs on that node's thread: it measures the subdomain in one
// pass (area, smallest angle, below-goal count), then moves the subdomain
// into the caller's `out_subs` slot, or frees it when there is no
// `out_subs`. One run drives the reloads and the handlers. Resident cells
// are posted at once; spilled cells reload a few at a time per node, each
// measured cell posting the next. A measured cell is an empty shell, so the
// whole mesh is never resident in the runtime at once. The caller only sums
// the per-cell results in cell order. A run that timed out skips collection,
// which would otherwise resume its leftover work: elements, cells and area
// stay zero and `out_subs` is not written.

#include "core/cluster.hpp"
#include "pumg/method.hpp"

namespace mrts::pumg {

struct OocRunResult {
  MeshRunStats mesh;
  core::RunReport report;  // timing breakdown of the main parallel phase
  std::uint64_t objects_spilled = 0;
  std::uint64_t objects_loaded = 0;
  std::uint64_t bytes_spilled = 0;
  std::uint64_t bytes_loaded = 0;
  /// Clean-spill elision activity: evictions that skipped serialize+store
  /// because the object was unmodified since its last spill (read-mostly
  /// reload traffic; see RuntimeOptions::spill_elision).
  std::uint64_t spills_elided = 0;
  std::uint64_t bytes_spill_elided = 0;
  std::uint64_t messages_executed = 0;
  std::uint64_t inline_deliveries = 0;
  std::uint64_t migrations = 0;
  /// ONUPDR diagnostics: leaves still marked dirty / splits still pending in
  /// the refinement queue when the run went quiescent (must be zero).
  std::uint64_t dirty_left = 0;
  std::uint64_t pending_left = 0;
  /// Self-healing storage path activity; all zero on a fault-free run (the
  /// benches report these so regressions in the happy path are visible).
  std::uint64_t storage_retries = 0;
  std::uint64_t loads_recovered = 0;
  std::uint64_t checkpoint_recoveries = 0;
  std::uint64_t spills_reinstalled = 0;
  std::uint64_t objects_poisoned = 0;
  /// Largest per-node high-watermark of in-core object bytes over the whole
  /// job, collection included (core::Runtime::peak_in_core_bytes).
  std::size_t peak_in_core_bytes = 0;
  /// Per-node busy seconds of the main parallel phase derived from trace
  /// spans (obs::TraceRecorder aggregates), for cross-checking the
  /// NodeCounters breakdown in `report`. All zero unless the caller enabled
  /// the global recorder; excludes the stat-collection reload pass.
  std::vector<core::BusyTimes> span_busy;

  [[nodiscard]] std::string summary() const;
};

struct OpcdmOocConfig {
  core::ClusterOptions cluster;
  int strips = 8;
};

struct OupdrOocConfig {
  core::ClusterOptions cluster;
  int nx = 4;
  int ny = 4;
  std::size_t max_phases = 1000;
  /// Read-mostly post-refinement phase: after the mesh converges, run this
  /// many bulk-synchronous sweeps that send a read-only query to every cell
  /// (cells reload and are evicted again unmodified — the traffic pattern
  /// clean-spill elision targets).
  std::size_t query_rounds = 0;
};

struct OnupdrOocConfig {
  core::ClusterOptions cluster;
  std::size_t leaf_element_budget = 4000;
  int max_depth = 10;
  /// Use multicast mobile messages to collect leaf + buffer before each
  /// refinement (the paper's experimental extension); otherwise pending
  /// splits are carried through the refinement-queue object.
  bool use_multicast = false;
  /// Concurrently refining neighbourhoods (paper: number of workers).
  std::size_t max_concurrent_leaves = 8;
};

/// Each runner optionally hands out the final subdomains, one per cell in
/// cell order, and a copy of the decomposition (for conformity checking and
/// visualization). When `report.timed_out` is set, no statistics are
/// collected and `out_subs` is not written.
OocRunResult run_opcdm_ooc(const MeshProblem& problem,
                           const OpcdmOocConfig& config,
                           std::vector<Subdomain>* out_subs = nullptr,
                           Decomposition* out_decomp = nullptr);
OocRunResult run_oupdr_ooc(const MeshProblem& problem,
                           const OupdrOocConfig& config,
                           std::vector<Subdomain>* out_subs = nullptr,
                           Decomposition* out_decomp = nullptr);
OocRunResult run_onupdr_ooc(const MeshProblem& problem,
                            const OnupdrOocConfig& config,
                            std::vector<Subdomain>* out_subs = nullptr,
                            Decomposition* out_decomp = nullptr);

}  // namespace mrts::pumg
