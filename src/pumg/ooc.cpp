#include "pumg/ooc.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "obs/trace.hpp"
#include "util/format.hpp"
#include "util/log.hpp"

namespace mrts::pumg {
namespace {

using core::Cluster;
using core::HandlerId;
using core::MobileObject;
using core::MobilePtr;
using core::NodeId;
using core::Runtime;
using core::TypeId;

constexpr std::uint32_t kNoOrigin = std::numeric_limits<std::uint32_t>::max();

void write_splits(util::ByteWriter& w, const std::vector<BoundarySplit>& v) {
  w.write<std::uint32_t>(static_cast<std::uint32_t>(v.size()));
  for (const BoundarySplit& s : v) s.serialize(w);
}

std::vector<BoundarySplit> read_splits(util::ByteReader& r) {
  const auto n = r.read<std::uint32_t>();
  std::vector<BoundarySplit> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    v.push_back(BoundarySplit::deserialized(r));
  }
  return v;
}

/// A decomposition cell as a mobile object: the unit of out-of-core
/// swapping and migration in all three methods.
class CellObject : public MobileObject {
 public:
  std::uint32_t index = 0;
  Subdomain sub;

  void serialize(util::ByteWriter& out) const override {
    out.write(index);
    sub.serialize(out);
  }
  void deserialize(util::ByteReader& in) override {
    index = in.read<std::uint32_t>();
    sub.deserialize(in);
  }
  std::size_t footprint_bytes() const override {
    return sizeof(CellObject) + sub.footprint_bytes();
  }
};

/// Base of the three OOC method drivers: owns the cluster, decomposition,
/// and the mobile pointers of all cells.
class OocApp {
 public:
  OocApp(const MeshProblem& problem, const core::ClusterOptions& options,
         Decomposition decomp)
      : problem_(problem), cluster_(options), decomp_(std::move(decomp)) {}

  Cluster& cluster() { return cluster_; }
  [[nodiscard]] std::size_t cell_count() const { return decomp_.size(); }

  /// Creates one CellObject per cell, distributed round-robin over nodes,
  /// and builds its subdomain triangulation. Returns per-target batches of
  /// construction-time boundary splits (usually empty with CDT recovery).
  std::vector<std::vector<BoundarySplit>> create_cells() {
    cell_type_ = cluster_.registry().register_type<CellObject>("pumg-cell");
    // Consumes the cell: measures its subdomain, then moves it to the
    // caller's slot or drops it, so the cell shrinks to an empty shell. A
    // reloaded cell then starts its node's next reload (see
    // collect_stats()).
    h_collect_ = cluster_.registry().register_handler(
        cell_type_, [this](Runtime& rt, MobileObject& obj, MobilePtr, NodeId,
                           util::ByteReader&) {
          auto& cell = static_cast<CellObject&>(obj);
          collected_[cell.index] =
              cell_stats(cell.sub.tri(), problem_.refine.min_angle_deg);
          Subdomain sub = std::exchange(cell.sub, Subdomain{});
          if (out_subs_ != nullptr) {
            (*out_subs_)[cell.index] = std::move(sub);
          }
          if (reloaded_[cell.index]) collect_next_spilled(rt);
        });
    const auto nodes = static_cast<NodeId>(cluster_.size());
    std::vector<std::vector<BoundarySplit>> initial(decomp_.size());
    for (std::uint32_t i = 0; i < decomp_.size(); ++i) {
      Runtime& rt = cluster_.node(i % nodes);
      auto [ptr, cell] = rt.create<CellObject>(cell_type_);
      cell->index = i;
      cell->sub = Subdomain(problem_.domain, decomp_.cells[i].rect,
                            decomp_.cells[i].extra_border_points);
      rt.refresh_footprint(ptr);
      cells_.push_back(ptr);
      for (const BoundarySplit& s : cell->sub.initial_splits()) {
        if (auto t = decomp_.neighbor_for(i, s.side, s.m)) {
          initial[*t].push_back(s);
        }
      }
    }
    return initial;
  }

  /// Collects every cell on its current owner: the cell is locked in core
  /// and posted one collect message, whose handler measures and hands over
  /// its subdomain on the owner's node thread. One run() drives the reloads
  /// and the handlers. Resident cells are posted at once. Spilled cells are
  /// reloaded through max_concurrent_loads + 1 chains per node, each
  /// measured cell starting the next reload, so no more reloaded cells wait
  /// for their handler than the loads in flight plus one being measured.
  /// The locks keep a waiting cell from being evicted; a measured cell is
  /// an empty shell. The caller then sums the per-cell results in cell
  /// order and unlocks.
  MeshRunStats collect_stats(std::vector<Subdomain>* out_subs) {
    collected_.assign(cells_.size(), std::nullopt);
    out_subs_ = out_subs;
    if (out_subs != nullptr) out_subs->resize(cells_.size());
    reloaded_.assign(cells_.size(), 0);
    to_reload_.assign(cluster_.size(), {});
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      Runtime& rt = owner_of(cells_[i]);
      if (rt.peek(cells_[i]) != nullptr) {
        start_collect(rt, cells_[i]);
      } else {
        reloaded_[i] = 1;
        to_reload_[rt.node()].push_back(cells_[i]);
      }
    }
    for (std::size_t n = 0; n < cluster_.size(); ++n) {
      Runtime& rt = cluster_.node(static_cast<NodeId>(n));
      for (int c = 0; c <= rt.options().ooc.max_concurrent_loads; ++c) {
        collect_next_spilled(rt);
      }
    }
    (void)cluster_.run();
    out_subs_ = nullptr;
    MeshRunStats stats;
    stats.quality_goal_deg = problem_.refine.min_angle_deg;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      Runtime& rt = owner_of(cells_[i]);
      if (!collected_[i]) {
        throw std::logic_error(util::format(
            "ooc pumg: cell {} on node {} not measured after the collect run",
            i, rt.node()));
      }
      accumulate_stats(stats, *collected_[i]);
      rt.unlock(cells_[i]);
    }
    return stats;
  }

  void start_collect(Runtime& rt, MobilePtr p) {
    rt.lock_in_core(p);
    rt.send(p, h_collect_, std::vector<std::byte>{});
  }

  /// Starts collecting `rt`'s next spilled cell, if any is left. Runs on
  /// that node's thread during the collect run.
  void collect_next_spilled(Runtime& rt) {
    std::vector<MobilePtr>& left = to_reload_[rt.node()];
    if (left.empty()) return;
    start_collect(rt, left.back());
    left.pop_back();
  }

  /// Snapshot of the global recorder's per-node span busy aggregates
  /// (all zero when tracing is compiled out or disabled).
  [[nodiscard]] std::vector<core::BusyTimes> span_snapshot() const {
    const auto& tr = obs::TraceRecorder::global();
    std::vector<core::BusyTimes> out(cluster_.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = {tr.busy_seconds(i, obs::Cat::kComp),
                tr.busy_seconds(i, obs::Cat::kComm),
                tr.busy_seconds(i, obs::Cat::kDisk)};
    }
    return out;
  }

  /// Call immediately before the main cluster_.run() so finish() can
  /// attribute span time to the parallel phase alone.
  void mark_span_start() { span_before_ = span_snapshot(); }

  OocRunResult finish(core::RunReport report, std::size_t rounds,
                      std::uint64_t splits,
                      std::vector<Subdomain>* out_subs = nullptr,
                      Decomposition* out_decomp = nullptr) {
    OocRunResult result;
    result.report = report;
    // Span-derived breakdown of the main phase only: snapshot before
    // collect_stats() below drives its extra load pass.
    if (const auto span_after = span_snapshot();
        span_after.size() == span_before_.size()) {
      result.span_busy.resize(span_after.size());
      for (std::size_t i = 0; i < span_after.size(); ++i) {
        result.span_busy[i] = {
            span_after[i].comp_seconds - span_before_[i].comp_seconds,
            span_after[i].comm_seconds - span_before_[i].comm_seconds,
            span_after[i].disk_seconds - span_before_[i].disk_seconds};
      }
    }
    // A timed-out run leaves work queued; collecting would run it for
    // another max_run_time. Its statistics stay zero, out_subs unwritten.
    if (!report.timed_out) result.mesh = collect_stats(out_subs);
    if (out_decomp != nullptr) *out_decomp = decomp_;
    for (std::size_t n = 0; n < cluster_.size(); ++n) {
      result.peak_in_core_bytes = std::max(
          result.peak_in_core_bytes,
          cluster_.node(static_cast<NodeId>(n)).peak_in_core_bytes());
    }
    result.mesh.rounds = rounds;
    result.mesh.boundary_splits_exchanged = splits;
    result.mesh.wall_seconds = report.total_seconds;
    result.objects_spilled = cluster_.sum_counters(
        [](const core::NodeCounters& c) { return c.objects_spilled.load(); });
    result.objects_loaded = cluster_.sum_counters(
        [](const core::NodeCounters& c) { return c.objects_loaded.load(); });
    result.bytes_spilled = cluster_.sum_counters(
        [](const core::NodeCounters& c) { return c.bytes_spilled.load(); });
    result.bytes_loaded = cluster_.sum_counters(
        [](const core::NodeCounters& c) { return c.bytes_loaded.load(); });
    result.spills_elided = cluster_.sum_counters(
        [](const core::NodeCounters& c) { return c.spills_elided.load(); });
    result.bytes_spill_elided =
        cluster_.sum_counters([](const core::NodeCounters& c) {
          return c.bytes_spill_elided.load();
        });
    result.messages_executed = cluster_.sum_counters(
        [](const core::NodeCounters& c) { return c.messages_executed.load(); });
    result.inline_deliveries = cluster_.sum_counters(
        [](const core::NodeCounters& c) { return c.inline_deliveries.load(); });
    result.migrations = cluster_.sum_counters(
        [](const core::NodeCounters& c) { return c.migrations_in.load(); });
    result.loads_recovered = cluster_.sum_counters(
        [](const core::NodeCounters& c) { return c.loads_recovered.load(); });
    result.checkpoint_recoveries =
        cluster_.sum_counters([](const core::NodeCounters& c) {
          return c.checkpoint_recoveries.load();
        });
    result.spills_reinstalled =
        cluster_.sum_counters([](const core::NodeCounters& c) {
          return c.spills_reinstalled.load();
        });
    result.objects_poisoned = cluster_.sum_counters(
        [](const core::NodeCounters& c) { return c.objects_poisoned.load(); });
    for (std::size_t n = 0; n < cluster_.size(); ++n) {
      result.storage_retries +=
          cluster_.node(static_cast<core::NodeId>(n)).storage_retries();
    }
    return result;
  }

  Runtime& owner_of(MobilePtr p) {
    for (std::size_t n = 0; n < cluster_.size(); ++n) {
      if (cluster_.node(static_cast<NodeId>(n)).is_local(p)) {
        return cluster_.node(static_cast<NodeId>(n));
      }
    }
    throw std::logic_error("ooc pumg: owner of " + core::to_string(p) +
                           " not found");
  }

 protected:
  MeshProblem problem_;
  Cluster cluster_;
  Decomposition decomp_;
  std::vector<MobilePtr> cells_;
  TypeId cell_type_ = 0;
  HandlerId h_collect_ = 0;
  /// One slot per cell, sized before the collect run; a slot is written
  /// only by its cell's collect handler and read after run() returns.
  /// `out_subs_` is the caller's vector, set for the collect run only, and
  /// `reloaded_` marks the cells that were spilled when collection began.
  std::vector<std::optional<CellStats>> collected_;
  std::vector<Subdomain>* out_subs_ = nullptr;
  std::vector<std::uint8_t> reloaded_;
  /// Per node, the spilled cells not yet posted; in the collect run only
  /// that node's thread touches its list.
  std::vector<std::vector<MobilePtr>> to_reload_;
  std::vector<core::BusyTimes> span_before_;
};

// ---------------------------------------------------------------------------
// OPCDM: fully asynchronous strip-to-strip messaging.

class OpcdmApp : public OocApp {
 public:
  OpcdmApp(const MeshProblem& problem, const OpcdmOocConfig& config)
      : OocApp(problem, config.cluster,
               make_strips(problem.domain, config.strips)) {}

  OocRunResult run(std::vector<Subdomain>* out_subs = nullptr,
                   Decomposition* out_decomp = nullptr) {
    auto initial = create_cells();
    h_refine_ = cluster_.registry().register_handler(
        cell_type_,
        [this](Runtime& rt, MobileObject& obj, MobilePtr self, NodeId src,
               util::ByteReader& args) {
          on_refine(rt, static_cast<CellObject&>(obj), self, src, args);
        });
    for (std::uint32_t i = 0; i < cells_.size(); ++i) {
      util::ByteWriter w;
      write_splits(w, initial[i]);
      cluster_.node(0).send(cells_[i], h_refine_, w.take());
    }
    mark_span_start();
    const auto report = cluster_.run();
    return finish(report, turns_.load(), splits_.load(), out_subs,
                  out_decomp);
  }

 private:
  void on_refine(Runtime& rt, CellObject& cell, MobilePtr /*self*/,
                 NodeId /*src*/, util::ByteReader& args) {
    turns_.fetch_add(1, std::memory_order_relaxed);
    for (const BoundarySplit& s : read_splits(args)) {
      cell.sub.apply_mirror_split(s);
    }
    auto outcome = cell.sub.refine(problem_.refine);
    // Aggregate one batch per neighbour (the paper's message aggregation).
    std::unordered_map<std::uint32_t, std::vector<BoundarySplit>> batches;
    for (BoundarySplit& s : outcome.splits) {
      if (auto t = decomp_.neighbor_for(cell.index, s.side, s.m)) {
        batches[*t].push_back(std::move(s));
      }
    }
    for (auto& [target, batch] : batches) {
      splits_.fetch_add(batch.size(), std::memory_order_relaxed);
      util::ByteWriter w;
      write_splits(w, batch);
      rt.send(cells_[target], h_refine_, w.take());
    }
  }

  HandlerId h_refine_ = 0;
  std::atomic<std::uint64_t> turns_{0};
  std::atomic<std::uint64_t> splits_{0};
};

// ---------------------------------------------------------------------------
// OUPDR: coordinator-driven bulk-synchronous phases.

class UpdrCoordinator : public MobileObject {
 public:
  std::uint32_t waiting = 0;
  std::uint64_t phase = 0;
  std::vector<std::uint8_t> dirty;
  std::vector<std::vector<BoundarySplit>> pending;  // per cell

  void serialize(util::ByteWriter& out) const override {
    out.write(waiting);
    out.write(phase);
    out.write_vector(dirty);
    out.write<std::uint64_t>(pending.size());
    for (const auto& v : pending) write_splits(out, v);
  }
  void deserialize(util::ByteReader& in) override {
    waiting = in.read<std::uint32_t>();
    phase = in.read<std::uint64_t>();
    dirty = in.read_vector<std::uint8_t>();
    const auto n = in.read<std::uint64_t>();
    pending.resize(n);
    for (auto& v : pending) v = read_splits(in);
  }
  std::size_t footprint_bytes() const override {
    std::size_t bytes = sizeof(*this) + dirty.size();
    for (const auto& v : pending) bytes += v.size() * sizeof(BoundarySplit);
    return bytes;
  }
};

class OupdrApp : public OocApp {
 public:
  OupdrApp(const MeshProblem& problem, const OupdrOocConfig& config)
      : OocApp(problem, config.cluster,
               make_grid(problem.domain, config.nx, config.ny)),
        config_(config) {}

  OocRunResult run(std::vector<Subdomain>* out_subs = nullptr,
                   Decomposition* out_decomp = nullptr) {
    auto initial = create_cells();
    coord_type_ =
        cluster_.registry().register_type<UpdrCoordinator>("updr-coord");
    h_phase_ = cluster_.registry().register_handler(
        cell_type_,
        [this](Runtime& rt, MobileObject& obj, MobilePtr self, NodeId src,
               util::ByteReader& args) {
          on_phase(rt, static_cast<CellObject&>(obj), self, src, args);
        });
    h_done_ = cluster_.registry().register_handler(
        coord_type_,
        [this](Runtime& rt, MobileObject& obj, MobilePtr self, NodeId src,
               util::ByteReader& args) {
          on_done(rt, static_cast<UpdrCoordinator&>(obj), self, src, args);
        });
    // Read-only: queries scan the converged mesh without mutating it, so
    // the runtime keeps the cells clean and their evictions elide.
    h_query_ = cluster_.registry().register_handler(
        cell_type_,
        [this](Runtime&, MobileObject& obj, MobilePtr, NodeId,
               util::ByteReader&) {
          auto& cell = static_cast<CellObject&>(obj);
          query_bytes_.fetch_add(cell.sub.footprint_bytes(),
                                 std::memory_order_relaxed);
        },
        /*read_only=*/true);

    auto [coord_ptr, coord] =
        cluster_.node(0).create<UpdrCoordinator>(coord_type_);
    coord_ = coord_ptr;
    coord->dirty.assign(cells_.size(), 0);
    coord->pending.assign(cells_.size(), {});
    for (std::uint32_t i = 0; i < cells_.size(); ++i) {
      coord->pending[i] = std::move(initial[i]);
    }
    coord->waiting = static_cast<std::uint32_t>(cells_.size());
    // The coordinator is small and chatty: never swap it (paper §III).
    cluster_.node(0).lock_in_core(coord_ptr);

    // Phase 1: everyone refines.
    for (std::uint32_t i = 0; i < cells_.size(); ++i) {
      util::ByteWriter w;
      write_splits(w, coord->pending[i]);
      coord->pending[i].clear();
      cluster_.node(0).send(cells_[i], h_phase_, w.take());
    }
    mark_span_start();
    const auto report = cluster_.run();
    // Read-mostly phase (paper: visualization / solver sweeps over the
    // finished mesh): each round queries every cell once and runs to
    // quiescence, so cells cycle disk→core→disk without being modified.
    // Skipped after a timeout, like collection (see finish()).
    for (std::size_t round = 0;
         !report.timed_out && round < config_.query_rounds; ++round) {
      for (std::uint32_t i = 0; i < cells_.size(); ++i) {
        util::ByteWriter w;
        w.write<std::uint64_t>(round);
        cluster_.node(0).send(cells_[i], h_query_, w.take());
      }
      (void)cluster_.run();
    }
    auto result = finish(report, phases_, splits_.load(), out_subs,
                         out_decomp);
    return result;
  }

 private:
  void on_phase(Runtime& rt, CellObject& cell, MobilePtr /*self*/,
                NodeId /*src*/, util::ByteReader& args) {
    for (const BoundarySplit& s : read_splits(args)) {
      cell.sub.apply_mirror_split(s);
    }
    auto outcome = cell.sub.refine(problem_.refine);
    // Report results to the coordinator: (target, splits) pairs.
    std::unordered_map<std::uint32_t, std::vector<BoundarySplit>> batches;
    for (BoundarySplit& s : outcome.splits) {
      if (auto t = decomp_.neighbor_for(cell.index, s.side, s.m)) {
        batches[*t].push_back(std::move(s));
      }
    }
    util::ByteWriter w;
    w.write<std::uint32_t>(static_cast<std::uint32_t>(batches.size()));
    for (auto& [target, batch] : batches) {
      w.write(target);
      write_splits(w, batch);
      splits_.fetch_add(batch.size(), std::memory_order_relaxed);
    }
    rt.send(coord_, h_done_, w.take());
  }

  void on_done(Runtime& rt, UpdrCoordinator& coord, MobilePtr /*self*/,
               NodeId /*src*/, util::ByteReader& args) {
    const auto n = args.read<std::uint32_t>();
    for (std::uint32_t k = 0; k < n; ++k) {
      const auto target = args.read<std::uint32_t>();
      auto splits = read_splits(args);
      coord.dirty[target] = 1;
      auto& pending = coord.pending[target];
      pending.insert(pending.end(), std::make_move_iterator(splits.begin()),
                     std::make_move_iterator(splits.end()));
    }
    if (--coord.waiting > 0) return;
    // Barrier reached: launch the next phase on the dirtied cells.
    ++coord.phase;
    phases_ = coord.phase;
    if (coord.phase > config_.max_phases) {
      throw std::runtime_error("run_oupdr_ooc: phases did not converge");
    }
    std::vector<std::uint32_t> targets;
    for (std::uint32_t i = 0; i < coord.dirty.size(); ++i) {
      if (coord.dirty[i]) targets.push_back(i);
    }
    coord.waiting = static_cast<std::uint32_t>(targets.size());
    for (std::uint32_t i : targets) {
      coord.dirty[i] = 0;
      util::ByteWriter w;
      write_splits(w, coord.pending[i]);
      coord.pending[i].clear();
      rt.send(cells_[i], h_phase_, w.take());
    }
    // waiting == 0 with no targets: quiescence ends the run.
  }

  OupdrOocConfig config_;
  TypeId coord_type_ = 0;
  HandlerId h_phase_ = 0, h_done_ = 0, h_query_ = 0;
  MobilePtr coord_;
  std::uint64_t phases_ = 1;
  std::atomic<std::uint64_t> splits_{0};
  std::atomic<std::uint64_t> query_bytes_{0};  // keeps the query handler honest
};

// ---------------------------------------------------------------------------
// ONUPDR: refinement-queue object, master-worker over mobile leaves.

class RefinementQueue : public MobileObject {
 public:
  std::vector<std::uint8_t> dirty;
  std::vector<std::uint8_t> busy;
  std::vector<std::vector<BoundarySplit>> pending;
  /// Cells reserved by each in-flight dispatch, keyed by origin leaf.
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> reservations;
  std::uint64_t dispatches = 0;

  void serialize(util::ByteWriter& out) const override {
    out.write_vector(dirty);
    out.write_vector(busy);
    out.write<std::uint64_t>(pending.size());
    for (const auto& v : pending) write_splits(out, v);
    out.write<std::uint64_t>(reservations.size());
    for (const auto& [k, v] : reservations) {
      out.write(k);
      out.write_vector(v);
    }
    out.write(dispatches);
  }
  void deserialize(util::ByteReader& in) override {
    dirty = in.read_vector<std::uint8_t>();
    busy = in.read_vector<std::uint8_t>();
    const auto n = in.read<std::uint64_t>();
    pending.resize(n);
    for (auto& v : pending) v = read_splits(in);
    const auto m = in.read<std::uint64_t>();
    for (std::uint64_t i = 0; i < m; ++i) {
      const auto k = in.read<std::uint32_t>();
      reservations.emplace(k, in.read_vector<std::uint32_t>());
    }
    dispatches = in.read<std::uint64_t>();
  }
  std::size_t footprint_bytes() const override {
    std::size_t bytes = sizeof(*this) + dirty.size() + busy.size();
    for (const auto& v : pending) bytes += v.size() * sizeof(BoundarySplit);
    return bytes;
  }
};

class OnupdrApp : public OocApp {
 public:
  OnupdrApp(const MeshProblem& problem, const OnupdrOocConfig& config)
      : OocApp(problem, config.cluster,
               make_quadtree(problem.domain, problem.refine.size_field,
                             config.leaf_element_budget, config.max_depth)),
        config_(config) {}

  OocRunResult run(std::vector<Subdomain>* out_subs = nullptr,
                   Decomposition* out_decomp = nullptr) {
    auto initial = create_cells();
    rq_type_ = cluster_.registry().register_type<RefinementQueue>("nupdr-rq");
    h_refine_ = cluster_.registry().register_handler(
        cell_type_,
        [this](Runtime& rt, MobileObject& obj, MobilePtr self, NodeId src,
               util::ByteReader& args) {
          on_refine(rt, static_cast<CellObject&>(obj), self, src, args);
        });
    h_apply_ = cluster_.registry().register_handler(
        cell_type_,
        [this](Runtime&, MobileObject& obj, MobilePtr, NodeId,
               util::ByteReader& args) {
          auto& cell = static_cast<CellObject&>(obj);
          for (const BoundarySplit& s : read_splits(args)) {
            cell.sub.apply_mirror_split(s);
          }
        });
    h_update_ = cluster_.registry().register_handler(
        rq_type_,
        [this](Runtime& rt, MobileObject& obj, MobilePtr self, NodeId src,
               util::ByteReader& args) {
          on_update(rt, static_cast<RefinementQueue&>(obj), self, src, args);
        });

    auto [rq_ptr, rq] = cluster_.node(0).create<RefinementQueue>(rq_type_);
    rq_ = rq_ptr;
    rq->dirty.assign(cells_.size(), 1);  // everything needs a first pass
    rq->busy.assign(cells_.size(), 0);
    rq->pending.assign(cells_.size(), {});
    for (std::uint32_t i = 0; i < cells_.size(); ++i) {
      rq->pending[i] = std::move(initial[i]);
    }
    // The refinement queue is small and receives/sends many messages:
    // locked in memory for the whole run (paper §III, first optimization).
    cluster_.node(0).lock_in_core(rq_ptr);

    // Kick the scheduler.
    util::ByteWriter w;
    w.write(kNoOrigin);
    w.write<std::uint32_t>(0);
    cluster_.node(0).send(rq_, h_update_, w.take());

    mark_span_start();
    const auto report = cluster_.run();
    OocRunResult result = finish(report, 0, splits_.load(), out_subs,
                                 out_decomp);
    // Read scheduler state off the (locked, in-core) queue object.
    if (auto* obj = cluster_.node(0).peek(rq_)) {
      auto& rqf = static_cast<RefinementQueue&>(*obj);
      result.mesh.rounds = rqf.dispatches;
      for (std::size_t i = 0; i < rqf.dirty.size(); ++i) {
        if (rqf.dirty[i]) ++result.dirty_left;
        result.pending_left += rqf.pending[i].size();
      }
      std::size_t busy_count = 0;
      for (auto b : rqf.busy) busy_count += b;
      const std::size_t reserved = rqf.reservations.size();
      // Leftover work (a timeout or a scheduler bug) is an error; a clean
      // end is routine.
      util::Log::log(result.dirty_left + busy_count + reserved > 0
                         ? util::LogLevel::kError
                         : util::LogLevel::kDebug,
                     "onupdr end: dirty={} busy={} reservations={}",
                     result.dirty_left, busy_count, reserved);
    }
    return result;
  }

 private:
  /// update message: origin leaf (kNoOrigin for the kickoff), then a list
  /// of (target, splits, make_dirty) tuples.
  void on_update(Runtime& rt, RefinementQueue& rq, MobilePtr /*self*/,
                 NodeId /*src*/, util::ByteReader& args) {
    const auto origin = args.read<std::uint32_t>();
    const auto n = args.read<std::uint32_t>();
    for (std::uint32_t k = 0; k < n; ++k) {
      const auto target = args.read<std::uint32_t>();
      const auto make_dirty = args.read<std::uint8_t>();
      auto splits = read_splits(args);
      if (make_dirty) rq.dirty[target] = 1;
      auto& pending = rq.pending[target];
      pending.insert(pending.end(), std::make_move_iterator(splits.begin()),
                     std::make_move_iterator(splits.end()));
    }
    if (origin != kNoOrigin) {
      // Free the neighbourhood reserved for the finished leaf.
      auto it = rq.reservations.find(origin);
      if (it != rq.reservations.end()) {
        for (std::uint32_t c : it->second) rq.busy[c] = 0;
        rq.reservations.erase(it);
      }
    }
    dispatch(rt, rq);
  }

  void dispatch(Runtime& rt, RefinementQueue& rq) {
    for (std::uint32_t i = 0; i < rq.dirty.size(); ++i) {
      if (rq.reservations.size() >= config_.max_concurrent_leaves) break;
      if (!rq.dirty[i] || rq.busy[i]) continue;
      // The buffer BUF: all neighbours of the leaf (they receive mirrored
      // splits while the leaf refines, so they are reserved with it).
      std::vector<std::uint32_t> zone{i};
      bool free = true;
      for (const auto& side : decomp_.cells[i].neighbors) {
        for (std::uint32_t nb : side) {
          if (rq.busy[nb]) {
            free = false;
            break;
          }
          zone.push_back(nb);
        }
        if (!free) break;
      }
      if (!free) continue;
      for (std::uint32_t c : zone) rq.busy[c] = 1;
      rq.reservations.emplace(i, zone);
      rq.dirty[i] = 0;
      ++rq.dispatches;

      util::ByteWriter w;
      write_splits(w, rq.pending[i]);
      rq.pending[i].clear();
      if (config_.use_multicast) {
        // Collect the leaf and its buffer in-core on one node first; the
        // refine handler can then mirror splits through direct inline
        // handler calls (paper §III "Findings").
        std::vector<MobilePtr> targets;
        for (std::uint32_t c : zone) targets.push_back(cells_[c]);
        rt.send_multicast(std::move(targets), 1, h_refine_, w.take());
      } else {
        rt.send(cells_[i], h_refine_, w.take());
      }
    }
  }

  void on_refine(Runtime& rt, CellObject& cell, MobilePtr self,
                 NodeId /*src*/, util::ByteReader& args) {
    // Keep the leaf resident while it works (paper's priority hint).
    rt.set_priority(self, core::kMaxPriority - 1);
    for (const BoundarySplit& s : read_splits(args)) {
      cell.sub.apply_mirror_split(s);
    }
    auto outcome = cell.sub.refine(problem_.refine);
    std::unordered_map<std::uint32_t, std::vector<BoundarySplit>> batches;
    for (BoundarySplit& s : outcome.splits) {
      if (auto t = decomp_.neighbor_for(cell.index, s.side, s.m)) {
        batches[*t].push_back(std::move(s));
      }
    }

    util::ByteWriter w;
    w.write(cell.index);
    std::vector<std::pair<std::uint32_t, std::vector<BoundarySplit>>> via_rq;
    for (auto& [target, batch] : batches) {
      splits_.fetch_add(batch.size(), std::memory_order_relaxed);
      bool applied_inline = false;
      if (config_.use_multicast) {
        // Neighbours were collected onto this node: apply directly.
        util::ByteWriter batch_bytes;
        write_splits(batch_bytes, batch);
        const auto payload = batch_bytes.take();
        applied_inline = rt.try_deliver_inline(cells_[target], h_apply_, payload);
      }
      if (applied_inline) {
        via_rq.emplace_back(target, std::vector<BoundarySplit>{});
      } else {
        via_rq.emplace_back(target, std::move(batch));
      }
    }
    w.write<std::uint32_t>(static_cast<std::uint32_t>(via_rq.size()));
    for (auto& [target, batch] : via_rq) {
      w.write(target);
      w.write<std::uint8_t>(1);  // all touched neighbours become dirty
      write_splits(w, batch);
    }
    rt.send(rq_, h_update_, w.take());
    rt.set_priority(self, core::kDefaultPriority);
  }

  OnupdrOocConfig config_;
  TypeId rq_type_ = 0;
  HandlerId h_refine_ = 0, h_apply_ = 0, h_update_ = 0;
  MobilePtr rq_;
  std::atomic<std::uint64_t> splits_{0};
};

}  // namespace

std::string OocRunResult::summary() const {
  return util::format(
      "{} | spills {} ({} MB), elided {} ({} MB), loads {} ({} MB), msgs {}, "
      "inline {}, migrations {} | comp {:.1f}% comm {:.1f}% disk {:.1f}% "
      "overlap {:.1f}%",
      mesh.summary(), objects_spilled, bytes_spilled >> 20, spills_elided,
      bytes_spill_elided >> 20, objects_loaded, bytes_loaded >> 20,
      messages_executed, inline_deliveries, migrations, report.comp_pct(),
      report.comm_pct(), report.disk_pct(), report.overlap_pct());
}

OocRunResult run_opcdm_ooc(const MeshProblem& problem,
                           const OpcdmOocConfig& config,
                           std::vector<Subdomain>* out_subs,
                           Decomposition* out_decomp) {
  OpcdmApp app(problem, config);
  return app.run(out_subs, out_decomp);
}

OocRunResult run_oupdr_ooc(const MeshProblem& problem,
                           const OupdrOocConfig& config,
                           std::vector<Subdomain>* out_subs,
                           Decomposition* out_decomp) {
  OupdrApp app(problem, config);
  return app.run(out_subs, out_decomp);
}

OocRunResult run_onupdr_ooc(const MeshProblem& problem,
                            const OnupdrOocConfig& config,
                            std::vector<Subdomain>* out_subs,
                            Decomposition* out_decomp) {
  OnupdrApp app(problem, config);
  return app.run(out_subs, out_decomp);
}

}  // namespace mrts::pumg
