#include "core/cluster.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "storage/file_store.hpp"
#include "storage/mem_store.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace mrts::core {
namespace {

/// Longest a worker waits on its doorbell after a turn that found nothing
/// to do: tick-driven work (retransmits, link latency) advances at least
/// this often.
constexpr auto kIdleWait = std::chrono::microseconds(50);
/// Longest the detector waits between scans when no worker wakes it; bounds
/// how late it notices max_run_time and the load-balance interval.
constexpr auto kScanFallback = std::chrono::microseconds(200);

/// One node's spill stack, and whether the node runs it inline.
struct SpillStack {
  std::unique_ptr<storage::StorageBackend> backend;
  /// The stack is a bare MemStore. It has no device time for an I/O thread
  /// to overlap, and it answers only OK or kNotFound, so running it on the
  /// node's own thread skips no retry backoff. Every decorator below either
  /// prices device time, fails transiently or hedges, and keeps the I/O
  /// thread.
  bool inline_io = false;
};

/// Marks a run in flight for as long as it lives, so every exit from a
/// driver, a rethrown handler exception included, ends the run.
class RunningFlag {
 public:
  explicit RunningFlag(std::atomic<bool>& flag) : flag_(flag) {
    flag_.store(true, std::memory_order_release);
  }
  ~RunningFlag() { flag_.store(false, std::memory_order_release); }
  RunningFlag(const RunningFlag&) = delete;
  RunningFlag& operator=(const RunningFlag&) = delete;

 private:
  std::atomic<bool>& flag_;
};

SpillStack make_spill_backend(const ClusterOptions& options, NodeId node,
                              storage::RemoteMemoryPool* remote_pool) {
  std::unique_ptr<storage::StorageBackend> base;
  const storage::StorageBackend* bare_memory = nullptr;
  switch (options.spill) {
    case SpillMedium::kFile:
      base = std::make_unique<storage::FileStore>(storage::make_temp_spill_dir(
          options.spill_tag + "-n" + std::to_string(node)));
      break;
    case SpillMedium::kMemory:
      base = std::make_unique<storage::MemStore>();
      bare_memory = base.get();
      break;
    case SpillMedium::kRemoteMemory:
      base = remote_pool->backend_for(node);
      break;
  }
  if (options.device.priced()) {
    // Under the fault injector and the replicated mirror: being under the
    // mirror is what lets a hedged read skip a slow device. It sleeps by
    // the rule retry backoff follows: only off the synchronous path.
    base = std::make_unique<storage::ModeledDevice>(
        std::move(base), options.device, node,
        /*sleep=*/!options.runtime.synchronous_storage);
  }
  if (options.storage_faults.has_value()) {
    storage::FaultPlan plan = *options.storage_faults;
    // Derive a distinct stream per node so one shared plan does not fail
    // the same op index on every node in lockstep.
    std::uint64_t s = plan.seed + node;
    plan.seed = util::splitmix64(s);
    plan.tag = node;
    base = std::make_unique<storage::FaultStore>(std::move(base),
                                                 std::move(plan));
  }
  if (options.replicate_spills) {
    // Outermost, above the fault injector: faults hit only the primary, the
    // mirror plays the healthy replica.
    storage::ReplicatedStoreOptions ropts = options.replication;
    ropts.tag = node;
    base = std::make_unique<storage::ReplicatedStore>(
        std::move(base), std::make_unique<storage::MemStore>(), ropts);
  }
  const bool inline_io = base.get() == bare_memory;  // nothing stacked on it
  return {std::move(base), inline_io};
}

std::vector<BusyTimes> busy_snapshot(
    const std::vector<std::unique_ptr<Runtime>>& runtimes) {
  std::vector<BusyTimes> out(runtimes.size());
  for (std::size_t i = 0; i < runtimes.size(); ++i) {
    const auto& c = runtimes[i]->counters();
    out[i] = {c.comp_time.seconds(), c.comm_time.seconds(),
              c.disk_time.seconds()};
  }
  return out;
}

/// Per-node busy time spent since the `before` snapshot.
std::vector<BusyTimes> busy_since(
    const std::vector<BusyTimes>& before,
    const std::vector<std::unique_ptr<Runtime>>& runtimes) {
  std::vector<BusyTimes> delta = busy_snapshot(runtimes);
  for (std::size_t i = 0; i < delta.size(); ++i) {
    delta[i].comp_seconds -= before[i].comp_seconds;
    delta[i].comm_seconds -= before[i].comm_seconds;
    delta[i].disk_seconds -= before[i].disk_seconds;
  }
  return delta;
}

RunReport finish_report(bool timed_out, double total_seconds,
                        const std::vector<BusyTimes>& work,
                        const net::FabricStats& fabric_before,
                        const net::FabricStats& fabric_after) {
  RunReport report;
  static_cast<RunBreakdown&>(report) = make_breakdown(total_seconds, work);
  report.timed_out = timed_out;
  report.fabric.messages_sent =
      fabric_after.messages_sent - fabric_before.messages_sent;
  report.fabric.messages_delivered =
      fabric_after.messages_delivered - fabric_before.messages_delivered;
  report.fabric.bytes_sent =
      fabric_after.bytes_sent - fabric_before.bytes_sent;
  report.fabric.messages_dropped =
      fabric_after.messages_dropped - fabric_before.messages_dropped;
  report.fabric.messages_duplicated =
      fabric_after.messages_duplicated - fabric_before.messages_duplicated;
  report.fabric.messages_delayed =
      fabric_after.messages_delayed - fabric_before.messages_delayed;
  report.fabric.messages_reordered =
      fabric_after.messages_reordered - fabric_before.messages_reordered;
  if (timed_out) {
    MRTS_LOG_ERROR("cluster run timed out after {:.1f}s", total_seconds);
  }
  return report;
}

}  // namespace

Cluster::Cluster(ClusterOptions options) : options_(std::move(options)) {
  if (options_.deterministic) {
    // A modeled link gives messages wall-clock deliverability times, which
    // the virtual-time driver cannot reproduce; storage must complete
    // inline and handlers must not race pool workers.
    options_.link = net::LinkModel{};
    options_.runtime.synchronous_storage = true;
    options_.runtime.pool_workers = 1;
  }
  fabric_ = std::make_unique<net::Fabric>(options_.nodes, options_.link);
  if (options_.net_faults.has_value() || options_.fabric_observer != nullptr) {
    fabric_->enable_chaos(options_.net_faults.value_or(net::NetFaultPlan{}),
                          options_.fabric_observer);
  }
  if (options_.spill == SpillMedium::kRemoteMemory) {
    remote_pool_ = std::make_unique<storage::RemoteMemoryPool>(
        options_.nodes, options_.remote_memory_capacity_bytes);
  }
  runtimes_.reserve(options_.nodes);
  for (std::size_t i = 0; i < options_.nodes; ++i) {
    const auto id = static_cast<NodeId>(i);
    RuntimeOptions node_options = options_.runtime;
    if (options_.object_checkpoints &&
        node_options.recovery.checkpoint_store == nullptr) {
      node_options.recovery.checkpoint_store =
          std::make_shared<storage::MemStore>();
    }
    SpillStack spill = make_spill_backend(options_, id, remote_pool_.get());
    node_options.synchronous_storage |= spill.inline_io;
    runtimes_.push_back(std::make_unique<Runtime>(
        id, fabric_->endpoint(id), registry_, std::move(spill.backend),
        node_options));
  }
}

Cluster::~Cluster() {
  {
    std::lock_guard lock(park_mutex_);
    shutting_down_ = true;
  }
  start_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void Cluster::ensure_quiesced(const char* what) const {
  if (running_.load(std::memory_order_acquire)) {
    throw std::logic_error(std::string("mrts: Cluster::") + what +
                           " called while run() is in flight; counters may "
                           "be mid-update — snapshot only at quiescence");
  }
}

std::uint64_t Cluster::global_activity() const {
  std::uint64_t total = fabric_->send_epoch();
  for (const auto& rt : runtimes_) total += rt->activity_epoch();
  return total;
}

bool Cluster::all_idle() const {
  for (const auto& rt : runtimes_) {
    if (!rt->is_idle()) return false;
  }
  return true;
}

void Cluster::maybe_advise_balance() {
  std::size_t hi = 0, lo = 0;
  std::uint64_t hi_load = 0,
                lo_load = std::numeric_limits<std::uint64_t>::max();
  bool found_lo = false;
  for (std::size_t i = 0; i < runtimes_.size(); ++i) {
    const auto id = static_cast<NodeId>(i);
    // Down nodes report zero queued work and would always win the lo slot,
    // turning shed advice into a black hole; draining nodes must not
    // receive new placements either.
    if (membership_ != nullptr && !membership_->node_up(id)) continue;
    const std::uint64_t load = runtimes_[i]->queued_messages();
    if (load > hi_load) {
      hi_load = load;
      hi = i;
    }
    if ((membership_ == nullptr || membership_->node_accepting(id)) &&
        load < lo_load) {
      lo_load = load;
      lo = i;
      found_lo = true;
    }
  }
  if (!found_lo) return;
  if (hi != lo &&
      hi_load > options_.balance.imbalance_factor *
                        static_cast<double>(lo_load) +
                    static_cast<double>(options_.balance.slack_messages)) {
    runtimes_[hi]->advise_shed(options_.balance.objects_per_advice,
                               static_cast<NodeId>(lo));
  }
}

RunReport Cluster::run() {
  registry_.seal();

  const std::vector<BusyTimes> before = busy_snapshot(runtimes_);
  const net::FabricStats fabric_before = fabric_->stats();
  const bool threaded = !options_.deterministic && !sweep_next_run_;
  // Workers start on the first threaded run and persist until ~Cluster.
  for (std::size_t i = workers_.size(); threaded && i < runtimes_.size();
       ++i) {
    workers_.emplace_back([this, i] { worker_loop(static_cast<NodeId>(i)); });
  }
  const RunningFlag running(running_);
  util::WallTimer timer;
  bool timed_out = false;
  std::uint64_t sweeps = 0;
  try {
    if (threaded) {
      timed_out = run_workers(timer);
    } else {
      sweeps = sweep(timer, timed_out);
    }
  } catch (...) {
    run_error_ = std::current_exception();  // a node the sweep drove threw
  }
  for (auto& rt : runtimes_) rt->flush_stores();
  if (run_error_) std::rethrow_exception(std::exchange(run_error_, {}));
  const double seconds = timer.seconds();
  const std::vector<BusyTimes> work = busy_since(before, runtimes_);
  if (!options_.deterministic) choose_driver(threaded, seconds, work);
  RunReport report = finish_report(timed_out, seconds, work, fabric_before,
                                   fabric_->stats());
  if (options_.deterministic) report.det_steps = sweeps;
  return report;
}

void Cluster::choose_driver(bool threaded, double seconds,
                            const std::vector<BusyTimes>& work) {
  double total = 0.0;
  double busiest = 0.0;
  for (const BusyTimes& t : work) {
    const double node = t.comp_seconds + t.comm_seconds + t.disk_seconds;
    total += node;
    busiest = std::max(busiest, node);
  }
  // Workers finish a run in about its busiest node's work plus the wake
  // and park; one thread in about the sum of all nodes' work. The smallest
  // overhead seen, not the last, so one slow wake-up cannot send heavy
  // runs to the sweep.
  if (threaded) {
    min_wake_overhead_s_ = std::min(min_wake_overhead_s_, seconds - busiest);
  }
  sweep_next_run_ = total - busiest < min_wake_overhead_s_;
}

bool Cluster::run_workers(const util::WallTimer& timer) {
  run_over_.store(false, std::memory_order_relaxed);
  nodes_turned_.store(0, std::memory_order_relaxed);
  {
    std::lock_guard lock(park_mutex_);
    ++run_generation_;
    busy_workers_ = workers_.size();
  }
  start_cv_.notify_all();

  bool timed_out = false;
  std::uint64_t prev_activity = 0;
  bool prev_quiet = false;
  util::WallTimer balance_timer;
  for (;;) {
    if (run_over_.load(std::memory_order_acquire)) break;  // a worker failed
    if (timer.seconds() > static_cast<double>(options_.max_run_time.count())) {
      timed_out = true;
      break;
    }
    // Scans count only once every node has taken a turn in this run; until
    // then an idle flag may be left over from the previous run.
    if (nodes_turned_.load(std::memory_order_acquire) == runtimes_.size()) {
      const bool quiet_now = all_idle() && fabric_->all_delivered();
      const std::uint64_t activity_now = global_activity();
      if (quiet_now && prev_quiet && activity_now == prev_activity) {
        break;  // two consecutive quiet scans with no work created in between
      }
      const bool confirm_at_once = quiet_now && !prev_quiet;
      prev_quiet = quiet_now;
      prev_activity = activity_now;
      if (confirm_at_once) continue;
    }

    // Dynamic load balancing: sample queued work, advise the most loaded
    // node to shed queued objects to the least loaded one.
    if (options_.balance.enabled &&
        balance_timer.elapsed() >= options_.balance.interval) {
      balance_timer.reset();
      maybe_advise_balance();
    }
    detector_bell_.wait_for(kScanFallback);
  }
  stop_workers();
  return timed_out;
}

void Cluster::worker_loop(NodeId id) {
  Runtime& rt = *runtimes_[id];
  util::Doorbell& bell = fabric_->endpoint(id).doorbell();
  std::uint64_t generation = 0;
  for (;;) {
    {
      std::unique_lock lock(park_mutex_);
      start_cv_.wait(lock, [&] {
        return shutting_down_ || run_generation_ != generation;
      });
      if (shutting_down_) return;
      generation = run_generation_;
    }
    bool turned = false;
    bool was_idle = false;
    while (!run_over_.load(std::memory_order_acquire)) {
      bool did = false;
      try {
        did = rt.progress_once();
      } catch (...) {
        std::lock_guard lock(park_mutex_);
        if (!run_error_) run_error_ = std::current_exception();
        run_over_.store(true, std::memory_order_release);
        detector_bell_.ring();
        break;
      }
      // The detector has something new to scan when this node just went
      // idle, or when this was the last node's first turn of the run.
      const bool idle = rt.is_idle();
      bool wake_detector = idle && !was_idle;
      was_idle = idle;
      if (!turned) {
        turned = true;
        const std::size_t turned_nodes =
            nodes_turned_.fetch_add(1, std::memory_order_acq_rel) + 1;
        wake_detector |= turned_nodes == runtimes_.size();
      }
      if (wake_detector) detector_bell_.ring();
      if (!did) bell.wait_for(kIdleWait);
    }
    std::lock_guard lock(park_mutex_);
    if (--busy_workers_ == 0) parked_cv_.notify_one();
  }
}

void Cluster::stop_workers() {
  run_over_.store(true, std::memory_order_release);
  for (std::size_t i = 0; i < runtimes_.size(); ++i) {
    fabric_->endpoint(static_cast<NodeId>(i)).doorbell().ring();
  }
  std::unique_lock lock(park_mutex_);
  parked_cv_.wait(lock, [this] { return busy_workers_ == 0; });
}

std::uint64_t Cluster::sweep(const util::WallTimer& timer, bool& timed_out) {
  // A deterministic cluster's virtual time is the sweep counter. Each sweep
  // visits every node once in a seeded shuffled order; everything runs on
  // this thread, so the whole schedule — and any chaos event trace — is a
  // pure function of the options and det_seed. Wall time is consulted only
  // for the timeout safety valve. A threaded cluster's sweep visits the
  // nodes in id order and keeps wall-clock time.
  const bool det = options_.deterministic;
  StepObserver* const observer = det ? options_.step_observer : nullptr;
  std::uint64_t seed_state = options_.det_seed;
  util::Rng order_rng(util::splitmix64(seed_state));
  std::vector<std::size_t> order(runtimes_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  util::WallTimer balance_timer;
  int quiet_sweeps = 0;
  std::uint64_t step = 0;
  while (quiet_sweeps < 2) {
    ++step;
    if (timer.seconds() > static_cast<double>(options_.max_run_time.count())) {
      timed_out = true;
      break;
    }
    if (det) {
      fabric_->advance_step(step);
      // Publish the sweep counter as the trace clock so events recorded
      // under TraceClock::kVirtual line up with the deterministic schedule.
      obs::TraceRecorder::global().set_virtual_time(step);
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[order_rng.below(i)]);
      }
    }
    bool did = false;
    for (std::size_t idx : order) {
      const auto id = static_cast<NodeId>(idx);
      if (observer != nullptr && !observer->node_runnable(id, step)) {
        continue;  // paused: no polling, no handlers, no I/O this step
      }
      did |= runtimes_[idx]->progress_once();
    }
    if (observer != nullptr) observer->on_step(step);
    if (options_.balance.enabled &&
        (det ? step % 64 == 0
             : balance_timer.elapsed() >= options_.balance.interval)) {
      balance_timer.reset();
      maybe_advise_balance();
    }
    // Quiet sweep: nobody worked, nobody holds work, and the fabric has
    // nothing in flight or parked. Two in a row mean global quiescence
    // (a paused node with pending work keeps its idle flag false, so a
    // pause can never be mistaken for termination).
    const bool quiet = !did && all_idle() && fabric_->all_delivered() &&
                       fabric_->held_messages() == 0 &&
                       (observer == nullptr || observer->quiescent());
    quiet_sweeps = quiet ? quiet_sweeps + 1 : 0;
    if (det || did || quiet) continue;
    // No node could work, but one still waits on its I/O thread or on a
    // message in transit: wait for its doorbell, as its idle worker would.
    for (std::size_t idx : order) {
      if (!runtimes_[idx]->is_idle()) {
        fabric_->endpoint(static_cast<NodeId>(idx)).doorbell().wait_for(
            kIdleWait);
        break;
      }
    }
  }
  return step;
}

}  // namespace mrts::core
