#pragma once

// Elastic membership for the deterministic cluster driver (ROADMAP item 4:
// nodes joining and leaving mid-run). MembershipManager is both the
// StepObserver that drives membership transitions between deterministic
// sweeps and the MembershipView liveness oracle the runtimes (and the
// cluster's balance monitor) consult when routing, migrating, or shedding.
//
// Three elasticity paths:
//
//   planned drain   Up -> Draining -> Down. A draining node stops accepting
//                   new placements (migrate()/shed advice refuse it) while
//                   the manager migrates its hosted objects out through the
//                   ordinary do_migrate/serialization path, a few per sweep.
//                   The node only reaches Down once it hosts nothing, is
//                   idle, its inbox is empty, and every reliable-link frame
//                   it sent or is owed has been acked — the epoch-versioned
//                   handoff then seeds its location knowledge into every
//                   survivor. A drained node is *departed*: it never polls
//                   again, so stale routes naming it are re-aimed through
//                   Runtime's home-node fallback. An object that an
//                   application holds with lock_in_core stays until its
//                   unlock(): a run may end with the node still Draining,
//                   and the drain goes on in the next run.
//
//   crash + rejoin  Fail-stop at a sweep boundary: the node's state is
//                   exported (in-core objects directly, spilled ones via a
//                   replicated-store scan with a checkpoint-store fallback),
//                   its directory/queues/blobs are wiped, and the exported
//                   objects are reinstalled round-robin on the survivors,
//                   which also learn the new locations. The reliable link's
//                   session state survives (modeled as living in a
//                   replicated control log), so parked traffic drains with
//                   exactly-once semantics when the node later rejoins as a
//                   fresh empty member. A crashed node is down but NOT
//                   departed — its traffic parks rather than rerouting, and
//                   the fabric's in-flight balance keeps the run from
//                   quiescing over it.
//
//   work stealing   Every steal_check_interval sweeps the manager pairs the
//                   most-loaded Up node (victim) with the least-loaded
//                   accepting node (thief) and, when the imbalance is large
//                   enough, claims one queued object off the victim
//                   (Runtime::steal_claim freezes the entry and snapshots it
//                   into an install-wire frame — the speculation
//                   checkpoint). After steal_decision_delay sweeps the claim
//                   resolves: commit ships the frame to the thief over the
//                   install channel; any conflicting mutation that landed in
//                   the window (arrival, lock, migrate, multicast collect,
//                   thief stopped accepting) rolls the object back from the
//                   frame instead. Work executes only at the thief after
//                   commit, so handlers still run exactly once and
//                   deterministic digests match the no-steal twin.
//
// Everything happens on the single driver thread between sweeps; no new AM
// channels exist — commit reuses the install path and all orchestration is
// driver-side. quiescent() vetoes termination while events remain
// unfired, steals are unresolved, or a node is still Draining with an
// object it can move, so a scheduled rejoin can never be skipped by early
// quiescence.

#include <cstdint>
#include <vector>

#include "core/cluster.hpp"
#include "core/runtime.hpp"

namespace mrts::obs {
class Counter;
}  // namespace mrts::obs

namespace mrts::core {

class HealthView;

enum class MembershipState : std::uint8_t { kUp = 0, kDraining, kDown };

[[nodiscard]] constexpr const char* to_string(MembershipState s) {
  switch (s) {
    case MembershipState::kUp: return "up";
    case MembershipState::kDraining: return "draining";
    case MembershipState::kDown: return "down";
  }
  return "unknown";
}

/// One scheduled membership transition, fired by the manager at the end of
/// the deterministic sweep numbered `step` (or the first sweep after it).
struct MembershipEventSpec {
  enum class Kind : std::uint8_t {
    kDrain = 0,  // begin a planned drain (no-op unless the node is Up)
    kKill,       // fail-stop crash: export + wipe + rebuild on survivors
    kRejoin,     // a killed node comes back as a fresh empty member
  };
  std::uint64_t step = 0;
  Kind kind = Kind::kDrain;
  NodeId node = 0;
};

struct MembershipOptions {
  /// Transition schedule on virtual sweep numbers; sorted by the manager.
  std::vector<MembershipEventSpec> events;
  /// Hosted objects a draining node migrates out per sweep.
  std::size_t drain_objects_per_step = 2;
  /// Enable the speculative work-stealing monitor.
  bool work_stealing = false;
  /// Sweeps between steal-opportunity checks.
  std::uint64_t steal_check_interval = 4;
  /// Speculation window: sweeps between claim and commit/rollback.
  std::uint64_t steal_decision_delay = 2;
  /// Unresolved claims allowed at once.
  std::size_t steal_max_inflight = 2;
  /// A victim must have at least this many queued messages to be stolen
  /// from, and at least 2x the thief's queue + 1.
  std::uint64_t steal_min_queue = 8;
  /// Reset every Up node's working OOC budget to its configured physical
  /// budget after a membership change (survivors absorb the leaver's
  /// objects). The service layer repartitions on its own tick and may turn
  /// this off.
  bool retarget_budgets = true;
};

struct MembershipStats {
  std::uint64_t drains = 0;
  std::uint64_t kills = 0;
  std::uint64_t rejoins = 0;
  std::uint64_t objects_drained = 0;  // migrated off draining nodes
  std::uint64_t objects_rebuilt = 0;  // crash exports reinstalled elsewhere
  std::uint64_t objects_lost = 0;     // no intact copy found (or poisoned)
  std::uint64_t steals_claimed = 0;
  std::uint64_t steals_committed = 0;
  std::uint64_t steals_aborted = 0;
  std::uint64_t handoff_updates = 0;  // epoch-versioned seeds delivered
};

class MembershipManager final : public StepObserver, public MembershipView {
 public:
  explicit MembershipManager(MembershipOptions options);

  /// Call BEFORE constructing the Cluster: chains any step observer already
  /// installed (the manager delegates to it) and forces deterministic mode
  /// — membership transitions are defined on virtual sweeps only.
  void instrument(ClusterOptions& options);

  /// Call AFTER constructing the Cluster: installs this manager as the
  /// membership view on every runtime and on the cluster's balance monitor.
  void attach(Cluster& cluster);

  /// Appends one more event (usable between runs; steps already passed fire
  /// on the next sweep).
  void schedule(MembershipEventSpec event);

  /// Overlays gray-failure health onto liveness: a Suspect node stays Up
  /// (it keeps serving, its traffic still flows) but node_accepting turns
  /// false and placement round-robin, steal thief choice, and fallback
  /// preference all route around it while any healthy alternative exists.
  /// Installed by HealthMonitor::attach(cluster, manager); pass nullptr to
  /// detach.
  void set_health_view(const HealthView* health) { health_ = health; }

  // --- StepObserver --------------------------------------------------------
  bool node_runnable(NodeId node, std::uint64_t step) override;
  void on_step(std::uint64_t step) override;
  [[nodiscard]] bool quiescent() const override;

  // --- MembershipView ------------------------------------------------------
  [[nodiscard]] bool node_up(NodeId node) const override;
  [[nodiscard]] bool node_accepting(NodeId node) const override;
  [[nodiscard]] bool node_departed(NodeId node) const override;
  [[nodiscard]] NodeId fallback_node(NodeId exclude) const override;

  // --- introspection -------------------------------------------------------
  [[nodiscard]] MembershipState state(NodeId node) const {
    return nodes_.at(node).state;
  }
  [[nodiscard]] const MembershipStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t live_nodes() const;
  [[nodiscard]] bool all_events_fired() const {
    return next_event_ >= options_.events.size();
  }
  [[nodiscard]] std::size_t pending_steals() const { return steals_.size(); }

 private:
  struct NodeInfo {
    MembershipState state = MembershipState::kUp;
    bool departed = false;       // drained to Down; never polls again
    std::uint64_t drain_begin_step = 0;
    /// Migrations this manager requested while draining; an entry leaves
    /// (and counts as drained) once the node no longer hosts it.
    std::vector<MobilePtr> drain_requested;
  };
  struct PendingSteal {
    MobilePtr ptr;
    NodeId victim = 0;
    NodeId thief = 0;
    std::uint64_t decide_step = 0;
    std::vector<std::byte> frame;
  };

  void process_events(std::uint64_t step);
  void begin_drain(NodeId node, std::uint64_t step);
  void advance_drains(std::uint64_t step);
  [[nodiscard]] bool drain_gate(NodeId node) const;
  void complete_drain(NodeId node, std::uint64_t step);
  void do_kill(NodeId node);
  void do_rejoin(NodeId node);
  void advance_steals(std::uint64_t step);
  void try_claim_steal(std::uint64_t step);
  /// Force-aborts every unresolved claim where `node` is victim or thief
  /// (membership teardown: the frame must not be in flight across a state
  /// change).
  void resolve_steals_involving(NodeId node);
  void retarget_budgets();
  /// Round-robin over accepting nodes, skipping `exclude`; `exclude` itself
  /// when no other accepting node exists.
  [[nodiscard]] NodeId next_target(NodeId exclude);
  /// Hosted, non-poisoned objects on `node`, sorted by object id.
  [[nodiscard]] std::vector<MobilePtr> hosted_objects(NodeId node) const;

  /// True when `node` is Up and no health overlay marks it Suspect.
  [[nodiscard]] bool node_choosable(NodeId node) const;

  MembershipOptions options_;
  Cluster* cluster_ = nullptr;
  const HealthView* health_ = nullptr;
  StepObserver* inner_ = nullptr;
  std::vector<NodeInfo> nodes_;
  std::size_t next_event_ = 0;
  std::vector<PendingSteal> steals_;
  std::size_t rr_target_ = 0;
  MembershipStats stats_;
  obs::Counter* m_drains_;            // membership.drains
  obs::Counter* m_kills_;             // membership.kills
  obs::Counter* m_rejoins_;           // membership.rejoins
  obs::Counter* m_steals_committed_;  // membership.steals_committed
  obs::Counter* m_steals_aborted_;    // membership.steals_aborted
  obs::Counter* m_objects_rebuilt_;   // membership.objects_rebuilt
};

}  // namespace mrts::core
