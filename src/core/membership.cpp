#include "core/membership.hpp"

#include <algorithm>
#include <limits>
#include <tuple>

#include "core/health.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace mrts::core {

namespace {

bool event_before(const MembershipEventSpec& a, const MembershipEventSpec& b) {
  return a.step < b.step;
}

}  // namespace

MembershipManager::MembershipManager(MembershipOptions options)
    : options_(std::move(options)),
      m_drains_(&obs::MetricsRegistry::global().counter("membership.drains")),
      m_kills_(&obs::MetricsRegistry::global().counter("membership.kills")),
      m_rejoins_(
          &obs::MetricsRegistry::global().counter("membership.rejoins")),
      m_steals_committed_(&obs::MetricsRegistry::global().counter(
          "membership.steals_committed")),
      m_steals_aborted_(&obs::MetricsRegistry::global().counter(
          "membership.steals_aborted")),
      m_objects_rebuilt_(&obs::MetricsRegistry::global().counter(
          "membership.objects_rebuilt")) {
  std::stable_sort(options_.events.begin(), options_.events.end(),
                   event_before);
}

void MembershipManager::instrument(ClusterOptions& options) {
  inner_ = options.step_observer;
  options.step_observer = this;
  // Membership transitions are defined on virtual sweep numbers; the
  // threaded driver has no such clock.
  options.deterministic = true;
}

void MembershipManager::attach(Cluster& cluster) {
  cluster_ = &cluster;
  nodes_.assign(cluster.size(), NodeInfo{});
  for (NodeId id = 0; id < static_cast<NodeId>(cluster.size()); ++id) {
    cluster.node(id).set_membership_view(this);
  }
  cluster.set_membership_view(this);
}

void MembershipManager::schedule(MembershipEventSpec event) {
  options_.events.push_back(event);
  std::stable_sort(options_.events.begin() +
                       static_cast<std::ptrdiff_t>(next_event_),
                   options_.events.end(), event_before);
}

// --- StepObserver ----------------------------------------------------------

bool MembershipManager::node_runnable(NodeId node, std::uint64_t step) {
  if (node < nodes_.size() && nodes_[node].state == MembershipState::kDown) {
    return false;  // down: no polling, no handlers — traffic parks
  }
  return inner_ == nullptr || inner_->node_runnable(node, step);
}

void MembershipManager::on_step(std::uint64_t step) {
  if (inner_ != nullptr) inner_->on_step(step);
  if (cluster_ == nullptr) return;
  process_events(step);
  advance_drains(step);
  advance_steals(step);
  if (options_.work_stealing && options_.steal_check_interval > 0 &&
      step % options_.steal_check_interval == 0) {
    try_claim_steal(step);
  }
}

bool MembershipManager::quiescent() const {
  // A pending event, an unresolved speculation window, or an unfinished
  // drain all veto termination: a scheduled rejoin in particular must fire
  // even if the workload already looks drained (the killed node's parked
  // traffic only flows once it is back Up). A drain yields only when every
  // object left on its node is held there by application locks: no run can
  // move those, and the drain resumes in the run after their unlock().
  if (next_event_ < options_.events.size()) return false;
  if (!steals_.empty()) return false;
  for (NodeId id = 0; id < static_cast<NodeId>(nodes_.size()); ++id) {
    if (nodes_[id].state != MembershipState::kDraining) continue;
    const Runtime& rt = cluster_->node(id);
    const std::vector<MobilePtr> left = hosted_objects(id);
    if (left.empty() ||
        !std::all_of(left.begin(), left.end(), [&](MobilePtr p) {
          return rt.migration_held_by_locks(p);
        })) {
      return false;
    }
  }
  return inner_ == nullptr || inner_->quiescent();
}

// --- MembershipView --------------------------------------------------------

bool MembershipManager::node_up(NodeId node) const {
  return node >= nodes_.size() || nodes_[node].state != MembershipState::kDown;
}

bool MembershipManager::node_accepting(NodeId node) const {
  return node >= nodes_.size() || node_choosable(node);
}

bool MembershipManager::node_choosable(NodeId node) const {
  return nodes_[node].state == MembershipState::kUp &&
         (health_ == nullptr || health_->node_healthy(node));
}

bool MembershipManager::node_departed(NodeId node) const {
  return node < nodes_.size() && nodes_[node].departed;
}

NodeId MembershipManager::fallback_node(NodeId exclude) const {
  // Preference order: healthy Up, then any Up (all-Suspect beats rerouting
  // to a draining or dead node), then anything not Down.
  for (NodeId id = 0; id < static_cast<NodeId>(nodes_.size()); ++id) {
    if (id != exclude && node_choosable(id)) return id;
  }
  for (NodeId id = 0; id < static_cast<NodeId>(nodes_.size()); ++id) {
    if (id != exclude && nodes_[id].state == MembershipState::kUp) return id;
  }
  for (NodeId id = 0; id < static_cast<NodeId>(nodes_.size()); ++id) {
    if (id != exclude && nodes_[id].state != MembershipState::kDown) return id;
  }
  return exclude;
}

std::size_t MembershipManager::live_nodes() const {
  std::size_t n = 0;
  for (const NodeInfo& info : nodes_) {
    if (info.state != MembershipState::kDown) ++n;
  }
  return n;
}

// --- event processing ------------------------------------------------------

void MembershipManager::process_events(std::uint64_t step) {
  while (next_event_ < options_.events.size() &&
         options_.events[next_event_].step <= step) {
    const MembershipEventSpec ev = options_.events[next_event_++];
    switch (ev.kind) {
      case MembershipEventSpec::Kind::kDrain:
        begin_drain(ev.node, step);
        break;
      case MembershipEventSpec::Kind::kKill:
        do_kill(ev.node);
        break;
      case MembershipEventSpec::Kind::kRejoin:
        do_rejoin(ev.node);
        break;
    }
  }
}

void MembershipManager::begin_drain(NodeId node, std::uint64_t step) {
  if (node >= nodes_.size()) return;
  NodeInfo& info = nodes_[node];
  // Idempotent: a second drain of a Draining or Down node is a no-op (the
  // double-drain test pins this).
  if (info.state != MembershipState::kUp) return;
  resolve_steals_involving(node);
  info.state = MembershipState::kDraining;
  info.drain_begin_step = step;
  ++stats_.drains;
  m_drains_->inc();
  obs::TraceRecorder::global().instant(obs::Cat::kOther,
                                       "membership.drain.begin",
                                       static_cast<std::uint16_t>(node));
  MRTS_LOG_INFO("membership: node {} draining (step {})", node, step);
}

void MembershipManager::advance_drains(std::uint64_t step) {
  for (NodeId id = 0; id < static_cast<NodeId>(nodes_.size()); ++id) {
    NodeInfo& info = nodes_[id];
    if (info.state != MembershipState::kDraining) continue;
    Runtime& rt = cluster_->node(id);
    // Settle migrations requested on earlier sweeps: gone means drained.
    std::erase_if(info.drain_requested, [&](MobilePtr p) {
      if (rt.hosts(p)) return false;
      ++stats_.objects_drained;
      return true;
    });
    const std::vector<MobilePtr> hosted = hosted_objects(id);
    std::size_t issued = 0;
    for (MobilePtr p : hosted) {
      if (issued >= options_.drain_objects_per_step) break;
      // Its migration is pending and waits for the application's unlock();
      // move the others meanwhile.
      if (rt.migration_held_by_locks(p)) continue;
      const NodeId target = next_target(id);
      if (target == id) break;  // no accepting survivor yet; retry next sweep
      // Repeated migrate() on a still-pending object just coalesces, so
      // re-requesting in-flight ones each sweep is harmless.
      rt.migrate(p, target);
      if (std::find(info.drain_requested.begin(), info.drain_requested.end(),
                    p) == info.drain_requested.end()) {
        info.drain_requested.push_back(p);
      }
      ++issued;
    }
    if (hosted.empty() && drain_gate(id)) complete_drain(id, step);
  }
}

bool MembershipManager::drain_gate(NodeId node) const {
  Runtime& rt = cluster_->node(node);
  if (!rt.is_idle() || !rt.inbox_empty()) return false;
  if (rt.stolen_entries() != 0) return false;
  for (const PendingSteal& s : steals_) {
    if (s.victim == node || s.thief == node) return false;
  }
  // Every reliable-link frame the node sent must be acked, and no live peer
  // may still owe it one — going Down with traffic in flight would strand a
  // sequenced frame forever.
  if (const net::ReliableLink* link = rt.reliable_link()) {
    if (link->has_unacked() || link->rx_buffered() != 0) return false;
  }
  for (NodeId p = 0; p < static_cast<NodeId>(nodes_.size()); ++p) {
    if (p == node || nodes_[p].state == MembershipState::kDown) continue;
    const net::ReliableLink* link = cluster_->node(p).reliable_link();
    if (link != nullptr && link->unacked_to(node) != 0) return false;
  }
  // Ack accounting alone is not airtight under fabric faults: a duplicated
  // or delayed copy of an already-acked frame is invisible to the reliable
  // layer, and if one lands in this inbox after the node goes Down it rots
  // there and vetoes termination forever. Hold the drain open until no copy
  // touching this node exists anywhere in the fabric.
  if (cluster_->fabric().in_flight_involving(node) != 0) return false;
  return true;
}

void MembershipManager::complete_drain(NodeId node, std::uint64_t step) {
  NodeInfo& info = nodes_[node];
  Runtime& rt = cluster_->node(node);
  for (MobilePtr p : info.drain_requested) {
    if (!rt.hosts(p)) ++stats_.objects_drained;
  }
  info.drain_requested.clear();
  info.state = MembershipState::kDown;
  info.departed = true;

  // Epoch-versioned directory handoff: every survivor learns everything the
  // drained node knew. The seeds go through the strictly-fresher filter, so
  // stale knowledge can never regress a survivor's directory. The drained
  // node keeps its own directory — in-flight routes that still name it are
  // re-aimed by reroute_if_departed, and home-routed chases converge.
  std::vector<std::tuple<MobilePtr, NodeId, std::uint64_t>> entries;
  rt.for_each_directory_entry_ex(
      [&](MobilePtr p, bool local, NodeId last, std::uint64_t epoch) {
        if (!local) entries.emplace_back(p, last, epoch);
      });
  std::sort(entries.begin(), entries.end());
  for (const auto& [p, last, epoch] : entries) {
    for (NodeId s = 0; s < static_cast<NodeId>(nodes_.size()); ++s) {
      if (s == node || nodes_[s].state == MembershipState::kDown) continue;
      cluster_->node(s).note_remote_location(p, last, epoch);
      ++stats_.handoff_updates;
    }
  }

  obs::TraceRecorder::global().complete(
      obs::Cat::kOther, "membership.drain", static_cast<std::uint16_t>(node),
      info.drain_begin_step, step - info.drain_begin_step, entries.size());
  MRTS_LOG_INFO("membership: node {} drained (step {}, {} handoff entries)",
                node, step, entries.size());
  retarget_budgets();
}

void MembershipManager::do_kill(NodeId node) {
  if (node >= nodes_.size()) return;
  NodeInfo& info = nodes_[node];
  if (info.state == MembershipState::kDown) return;
  // Down FIRST: a steal committing toward (or from) a dying node would put
  // an install frame on a link that cannot retransmit until rejoin, so all
  // speculation windows involving it are force-aborted before export.
  info.state = MembershipState::kDraining;  // keep node_up true for rollback
  resolve_steals_involving(node);
  info.state = MembershipState::kDown;
  info.drain_requested.clear();

  Runtime& rt = cluster_->node(node);
  std::vector<Runtime::RecoveredObject> recs = rt.crash_export();
  rt.crash_wipe();

  std::uint64_t rebuilt = 0;
  for (const Runtime::RecoveredObject& rec : recs) {
    if (rec.lost) {
      ++stats_.objects_lost;
      continue;
    }
    const NodeId target = next_target(node);
    if (target == node) {  // no accepting survivor anywhere
      ++stats_.objects_lost;
      continue;
    }
    cluster_->node(target).install_recovered(node, rec.frame);
    ++rebuilt;
    for (NodeId s = 0; s < static_cast<NodeId>(nodes_.size()); ++s) {
      if (s == node || s == target) continue;
      if (nodes_[s].state == MembershipState::kDown) continue;
      cluster_->node(s).note_remote_location(rec.ptr, target, rec.epoch);
      ++stats_.handoff_updates;
    }
  }
  ++stats_.kills;
  stats_.objects_rebuilt += rebuilt;
  m_kills_->inc();
  m_objects_rebuilt_->inc(rebuilt);
  obs::TraceRecorder::global().instant(obs::Cat::kOther, "membership.kill",
                                       static_cast<std::uint16_t>(node),
                                       rebuilt);
  MRTS_LOG_INFO("membership: node {} killed ({} rebuilt, {} lost)", node,
                rebuilt, stats_.objects_lost);
  retarget_budgets();
}

void MembershipManager::do_rejoin(NodeId node) {
  if (node >= nodes_.size()) return;
  NodeInfo& info = nodes_[node];
  // Only crashed nodes rejoin; a drained node departed for good.
  if (info.state != MembershipState::kDown || info.departed) return;

  // Seed the rejoiner with the live cluster's full directory knowledge,
  // freshest epoch per object. Home-owned entries make home-routed
  // deliveries land somewhere useful, but the rejoiner is also the target
  // of every stale third-party cache that still names it from before the
  // crash: if it comes back empty, such a route misses here, chases an
  // object whose home may itself have departed, and the fallback bounce
  // never converges. Entries that claim the object is at the rejoiner are
  // skipped — it was wiped, so that claim is dead by construction.
  Runtime& rejoiner = cluster_->node(node);
  std::vector<std::tuple<MobilePtr, NodeId, std::uint64_t>> seeds;
  for (NodeId s = 0; s < static_cast<NodeId>(nodes_.size()); ++s) {
    if (s == node || nodes_[s].state == MembershipState::kDown) continue;
    cluster_->node(s).for_each_directory_entry_ex(
        [&](MobilePtr p, bool local, NodeId last, std::uint64_t epoch) {
          const NodeId where = local ? s : last;
          if (where == node) return;
          seeds.emplace_back(p, where, epoch);
        });
  }
  std::sort(seeds.begin(), seeds.end());
  for (const auto& [p, where, epoch] : seeds) {
    rejoiner.note_remote_location(p, where, epoch);
    ++stats_.handoff_updates;
  }

  info.state = MembershipState::kUp;
  ++stats_.rejoins;
  m_rejoins_->inc();
  obs::TraceRecorder::global().instant(obs::Cat::kOther, "membership.rejoin",
                                       static_cast<std::uint16_t>(node),
                                       seeds.size());
  MRTS_LOG_INFO("membership: node {} rejoined ({} location seeds)", node,
                seeds.size());
  retarget_budgets();
}

// --- work stealing ---------------------------------------------------------

void MembershipManager::advance_steals(std::uint64_t step) {
  std::vector<PendingSteal> keep;
  keep.reserve(steals_.size());
  for (PendingSteal& s : steals_) {
    if (s.decide_step > step) {
      keep.push_back(std::move(s));
      continue;
    }
    const bool committed = cluster_->node(s.victim).steal_resolve(
        s.ptr, s.thief, std::move(s.frame));
    if (committed) {
      ++stats_.steals_committed;
      m_steals_committed_->inc();
    } else {
      ++stats_.steals_aborted;
      m_steals_aborted_->inc();
    }
  }
  steals_ = std::move(keep);
}

void MembershipManager::try_claim_steal(std::uint64_t step) {
  if (steals_.size() >= options_.steal_max_inflight) return;
  NodeId victim = 0, thief = 0;
  std::uint64_t vload = 0;
  std::uint64_t tload = std::numeric_limits<std::uint64_t>::max();
  std::size_t thosted = 0;
  bool have_victim = false, have_thief = false;
  for (NodeId id = 0; id < static_cast<NodeId>(nodes_.size()); ++id) {
    if (nodes_[id].state != MembershipState::kUp) continue;
    const std::uint64_t load = cluster_->node(id).queued_messages();
    const std::size_t hosted = cluster_->node(id).local_objects();
    if (!have_victim || load > vload) {
      vload = load;
      victim = id;
      have_victim = true;
    }
    // A Suspect node still makes a fine victim (shedding its queue is the
    // point) but never a thief: handing it more work while it is slow is
    // the anti-mitigation.
    if (health_ != nullptr && !health_->node_healthy(id)) continue;
    // Queue ties break toward the node hosting the fewest objects, so a
    // freshly rejoined (empty) member wins the thief slot over survivors
    // that already absorbed earlier steals.
    if (!have_thief || load < tload || (load == tload && hosted < thosted)) {
      tload = load;
      thosted = hosted;
      thief = id;
      have_thief = true;
    }
  }
  if (!have_victim || !have_thief || victim == thief) return;
  if (vload < options_.steal_min_queue || vload < 2 * tload + 1) return;
  for (MobilePtr p : hosted_objects(victim)) {
    std::vector<std::byte> frame;
    if (!cluster_->node(victim).steal_claim(p, frame)) continue;
    steals_.push_back(PendingSteal{p, victim, thief,
                                   step + options_.steal_decision_delay,
                                   std::move(frame)});
    ++stats_.steals_claimed;
    return;  // one claim per check
  }
}

void MembershipManager::resolve_steals_involving(NodeId node) {
  std::vector<PendingSteal> keep;
  keep.reserve(steals_.size());
  for (PendingSteal& s : steals_) {
    if (s.victim != node && s.thief != node) {
      keep.push_back(std::move(s));
      continue;
    }
    cluster_->node(s.victim).steal_resolve(s.ptr, s.thief, std::move(s.frame),
                                           /*force_abort=*/true);
    ++stats_.steals_aborted;
    m_steals_aborted_->inc();
  }
  steals_ = std::move(keep);
}

// --- helpers ---------------------------------------------------------------

void MembershipManager::retarget_budgets() {
  if (!options_.retarget_budgets) return;
  // Survivors absorb the leaver's objects: reset every Up node's working
  // budget to its configured physical budget (never above it — the chaos
  // check_budget invariant gates the physical bound).
  for (NodeId id = 0; id < static_cast<NodeId>(nodes_.size()); ++id) {
    if (nodes_[id].state != MembershipState::kUp) continue;
    Runtime& rt = cluster_->node(id);
    rt.set_memory_budget(rt.options().ooc.memory_budget_bytes);
  }
}

NodeId MembershipManager::next_target(NodeId exclude) {
  const std::size_t n = nodes_.size();
  // First pass wants healthy Up nodes; if every Up node is Suspect the
  // second pass takes any of them rather than falling back to `exclude`.
  for (std::size_t i = 0; i < n; ++i) {
    const auto cand = static_cast<NodeId>((rr_target_ + i) % n);
    if (cand == exclude) continue;
    if (!node_choosable(cand)) continue;
    rr_target_ = (static_cast<std::size_t>(cand) + 1) % n;
    return cand;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto cand = static_cast<NodeId>((rr_target_ + i) % n);
    if (cand == exclude) continue;
    if (nodes_[cand].state != MembershipState::kUp) continue;
    rr_target_ = (static_cast<std::size_t>(cand) + 1) % n;
    return cand;
  }
  return exclude;
}

std::vector<MobilePtr> MembershipManager::hosted_objects(NodeId node) const {
  const Runtime& rt = cluster_->node(node);
  std::vector<MobilePtr> out;
  rt.for_each_local_object([&](MobilePtr p) {
    if (rt.object_health(p) == ObjectHealth::kPoisoned) return;
    out.push_back(p);
  });
  // Deterministic order regardless of directory hash-map iteration.
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace mrts::core
