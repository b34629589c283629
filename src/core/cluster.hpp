#pragma once

// Cluster: owns the simulated fabric and one Runtime per node, drives the
// parallel phase, and detects global quiescence (the paper's termination
// condition: "no message handlers are executing and no messages are being
// delivered").
//
// Threaded driver: each node's control loop runs on its own worker thread.
// The workers are created on the first run() and parked between runs, so a
// run wakes them instead of spawning them; ~Cluster joins them. A worker
// whose progress_once() found nothing to do waits on its node's doorbell,
// which the fabric rings when a message enters the node's inbox and the
// runtime rings when one of its I/O completions is queued; the wait is
// capped at 50 us so tick-driven work (retransmits, link latency) keeps
// its cadence. The calling thread is the termination detector. Workers
// wake it when their node goes idle, and it scans
// (idle flags, fabric delivery balance, activity counters); a run ends on
// two consecutive scans that see every node idle, nothing in flight and the
// same activity. Scans count only once every node has taken one turn in
// this run, so no idle flag left over from the previous run can end it.
//
// Sweep: the calling thread visits every node in turn, running one
// progress_once() each, until two sweeps in a row find no work, every node
// idle and nothing in flight. It is the whole of the deterministic driver
// (ClusterOptions::deterministic), which starts no threads, shuffles the
// visit order by det_seed and counts sweeps as virtual time. A threaded
// cluster sweeps a run instead of waking its workers when the previous run
// showed that one thread would finish first: that run's summed node work
// (comp + comm + disk) minus its busiest node's work was less than the
// smallest wake-and-park overhead (wall time minus the busiest node's work)
// any of its threaded runs has shown. The first run of a cluster wakes the
// workers. Its sweeps keep wall-clock semantics: a node that waits on its
// I/O thread or on a message in transit is not idle, and a sweep in which
// no node could work waits on such a node's doorbell, as its worker would.
//
// Usage:
//   Cluster cluster(options);
//   TypeId t = cluster.registry().register_type<MyObj>("myobj");
//   HandlerId h = cluster.registry().register_handler(t, ...);
//   auto [ptr, obj] = cluster.node(0).create<MyObj>(t);
//   cluster.node(0).send(ptr, h, {});          // post initial messages
//   RunBreakdown b = cluster.run();            // parallel phase
//   ... inspect results via cluster.node(i).peek(...) ...

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/runtime.hpp"
#include "simnet/fabric.hpp"
#include "storage/fault_store.hpp"
#include "storage/modeled_device.hpp"
#include "storage/remote_store.hpp"
#include "storage/replicated_store.hpp"
#include "util/doorbell.hpp"
#include "util/timer.hpp"

namespace mrts::core {

/// Hook into the deterministic driver (chaos harness): consulted before
/// each node's control-loop turn and once after every full sweep. All
/// calls arrive on the single driver thread.
class StepObserver {
 public:
  virtual ~StepObserver() = default;
  /// Return false to pause `node` for this step: its control loop is
  /// skipped, so it neither polls the network nor runs handlers.
  virtual bool node_runnable(NodeId /*node*/, std::uint64_t /*step*/) {
    return true;
  }
  /// Called after the sweep numbered `step` completes.
  virtual void on_step(std::uint64_t /*step*/) {}
  /// Return false to veto quiescence: the driver keeps sweeping even when
  /// every node looks idle. The membership manager uses this so a run
  /// cannot terminate between a scheduled kill and its paired rejoin (the
  /// killed node's parked traffic only drains once it is back Up).
  [[nodiscard]] virtual bool quiescent() const { return true; }
};

/// Where a node's spill backend keeps evicted objects.
enum class SpillMedium {
  kFile,          // one file per object in a temp spill directory
  kMemory,        // process-local map (fast; unit tests, baselines)
  kRemoteMemory,  // peers' RAM via the shared RemoteMemoryPool (paper [33])
};

struct ClusterOptions {
  std::size_t nodes = 4;
  RuntimeOptions runtime;
  net::LinkModel link;
  SpillMedium spill = SpillMedium::kFile;
  /// The device that `spill` runs on: a disk for kFile, the interconnect for
  /// kRemoteMemory. When it prices anything, each node's spill stack gains
  /// a ModeledDevice directly over its medium, under the fault injector and
  /// the replicated mirror (so hedged reads can dodge a slow primary). Its
  /// slow windows make one node's device a gray failure. The device sleeps
  /// its cost only on a node whose storage runs on an I/O thread; under the
  /// deterministic driver it charges virtual time alone.
  storage::DeviceModel device;
  /// Per-node capacity of the remote-memory pool (0 = unlimited).
  std::uint64_t remote_memory_capacity_bytes = 0;
  /// Tag used in spill directory names.
  std::string spill_tag = "mrts";
  /// Safety limit for run(); exceeded runs stop and are marked timed_out.
  std::chrono::seconds max_run_time{600};
  /// Dynamic load balancing by the cluster monitor (paper §II.D).
  LoadBalanceOptions balance;

  // --- deterministic / chaos mode ----------------------------------------
  /// Single-threaded deterministic driver: nodes advance in seeded
  /// round-robin sweeps under a virtual step counter instead of
  /// free-running threads. Forces synchronous storage and one pool worker
  /// so the run (and any chaos event trace) is a pure function of the
  /// options and `det_seed`.
  bool deterministic = false;
  /// Seeds the per-sweep node visit order of the deterministic driver.
  std::uint64_t det_seed = 1;
  /// Consulted by the deterministic driver only; not owned.
  StepObserver* step_observer = nullptr;
  /// Network fault plan installed on the fabric at construction.
  std::optional<net::NetFaultPlan> net_faults;
  /// Receives every fabric transport event (chaos trace); not owned.
  net::FabricObserver* fabric_observer = nullptr;
  /// Storage fault plan: each node's spill backend is wrapped in a
  /// FaultStore carrying a per-node derived seed and tag = node id.
  std::optional<storage::FaultPlan> storage_faults;

  // --- self-healing storage path ------------------------------------------
  /// Wrap each node's spill stack (including any FaultStore) in a
  /// ReplicatedStore with an in-memory mirror: injected faults then hit only
  /// the primary and are healed transparently (scrub-on-read, circuit
  /// breaker, bounded overflow). The decorator sits outermost, exactly like
  /// a healthy replica over a sick disk.
  bool replicate_spills = false;
  storage::ReplicatedStoreOptions replication;
  /// Give each node a per-object checkpoint side-store: checkpoint_to()
  /// copies every object blob into it and the runtime's recovery ladder
  /// reads it back when both the spill store and its retries fail.
  bool object_checkpoints = false;
};

struct RunReport : RunBreakdown {
  bool timed_out = false;
  net::FabricStats fabric;
  /// Deterministic mode only: virtual steps (full sweeps) the run took.
  /// Wall-clock-free work metric — the reliable-net bench reports protocol
  /// overhead as a det_steps delta, which is reproducible in CI.
  std::uint64_t det_steps = 0;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] ObjectTypeRegistry& registry() { return registry_; }
  [[nodiscard]] std::size_t size() const { return runtimes_.size(); }
  [[nodiscard]] Runtime& node(NodeId id) { return *runtimes_.at(id); }
  [[nodiscard]] net::Fabric& fabric() { return *fabric_; }
  /// Non-null when the cluster spills to remote memory.
  [[nodiscard]] storage::RemoteMemoryPool* remote_memory_pool() {
    return remote_pool_.get();
  }

  /// Installs a membership view consulted by the load-balance monitor so
  /// shed advice never targets (or victimizes) a draining/down node. The
  /// MembershipManager installs itself here and on every Runtime.
  void set_membership_view(const MembershipView* view) { membership_ = view; }
  [[nodiscard]] const MembershipView* membership_view() const {
    return membership_;
  }

  /// Runs the parallel phase until global quiescence. May be called
  /// multiple times (multi-phase applications) and from any thread, one
  /// call at a time; counters accumulate, the returned breakdown covers
  /// this call only. A light run (see the header comment) runs the nodes
  /// on the calling thread; otherwise run() returns once every node worker
  /// has parked again. An exception thrown by a node's control loop (e.g.
  /// by a handler) ends the run and is rethrown here.
  RunReport run();

  /// Sum of a per-node counter over all nodes. Quiescent-only: calling this
  /// while run() is in flight would read counters that node threads are
  /// still updating mid-handler (time accumulators are not atomic), so it
  /// throws std::logic_error instead of returning a torn snapshot. Call it
  /// before run() or after run() returns.
  template <typename Fn>
  [[nodiscard]] std::uint64_t sum_counters(Fn&& get) const {
    ensure_quiesced("sum_counters");
    std::uint64_t total = 0;
    for (const auto& rt : runtimes_) total += get(rt->counters());
    return total;
  }

 private:
  /// Throws std::logic_error when a run is in flight.
  void ensure_quiesced(const char* what) const;
  [[nodiscard]] std::uint64_t global_activity() const;
  [[nodiscard]] bool all_idle() const;
  void maybe_advise_balance();
  /// Drives the run on the calling thread until two sweeps in a row are
  /// quiet; returns the number of sweeps.
  std::uint64_t sweep(const util::WallTimer& timer, bool& timed_out);
  /// Wakes the workers, detects quiescence and parks them again; returns
  /// whether the run timed out.
  bool run_workers(const util::WallTimer& timer);
  /// Body of node `id`'s worker thread: parks between runs, drives the
  /// node's control loop during one.
  void worker_loop(NodeId id);
  /// Ends the current threaded run and waits until every worker parked.
  void stop_workers();
  /// Picks the driver of the next run from this run's per-node work.
  void choose_driver(bool threaded, double seconds,
                     const std::vector<BusyTimes>& work);

  ClusterOptions options_;
  ObjectTypeRegistry registry_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<storage::RemoteMemoryPool> remote_pool_;
  std::vector<std::unique_ptr<Runtime>> runtimes_;
  /// Membership view for balance-advice gating; not owned, may be null.
  const MembershipView* membership_ = nullptr;
  /// True while run() is driving node progress.
  std::atomic<bool> running_{false};

  // --- driver choice (threaded clusters) -------------------------------------
  /// Smallest wall time minus busiest node's work of any threaded run.
  double min_wake_overhead_s_ = std::numeric_limits<double>::infinity();
  /// The next run sweeps on the calling thread; false until a threaded run
  /// has measured the overhead.
  bool sweep_next_run_ = false;

  // --- threaded driver: persistent node workers -----------------------------
  std::mutex park_mutex_;  // guards the four fields below
  std::uint64_t run_generation_ = 0;  // bumped to start a run
  std::size_t busy_workers_ = 0;      // workers not yet parked after a run
  bool shutting_down_ = false;        // set by ~Cluster
  /// First exception a node's control loop threw in the current run, on a
  /// worker or in a sweep; run() rethrows it.
  std::exception_ptr run_error_;
  std::condition_variable start_cv_;   // workers wait here for a run
  std::condition_variable parked_cv_;  // run() waits here for the workers
  /// Set to end the current run: by the detector, or by a failing worker.
  std::atomic<bool> run_over_{false};
  /// Nodes that have completed a progress_once() in the current run.
  std::atomic<std::size_t> nodes_turned_{0};
  /// Rung by a worker when its node goes idle, when the last node takes its
  /// first turn, or when it fails; the detector waits on it between scans.
  util::Doorbell detector_bell_;
  /// One per node, started by the first threaded run(); declared last so
  /// everything they use outlives them.
  std::vector<std::thread> workers_;
};

}  // namespace mrts::core
