// MembershipManager unit tests (ctest label "membership"): planned drain
// empties a node exactly once and is idempotent under double-drain, a
// migrate() naming a Down target is refused with a ledger record instead of
// hanging, a killed node's objects are rebuilt on survivors and the node
// rejoins empty, speculative steal commit/rollback leave application state
// byte-equal to a no-steal twin, and the service layer repairs jobs whose
// home node died instead of stalling, even in the run of a job's last
// phase, while its objects are pinned, and a drain that meets those pins
// lets the run end and finishes once they are released.

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "chaos/workload.hpp"
#include "core/cluster.hpp"
#include "core/membership.hpp"
#include "service/meshing_service.hpp"

namespace mrts::core {
namespace {

using Kind = MembershipEventSpec::Kind;

ClusterOptions det_options(std::size_t nodes = 3) {
  ClusterOptions o;
  o.nodes = nodes;
  o.deterministic = true;  // twins without a manager must match its clock
  o.spill = SpillMedium::kMemory;
  o.max_run_time = std::chrono::seconds(60);
  return o;
}

chaos::HopWorkloadOptions small_workload(std::uint64_t seed) {
  chaos::HopWorkloadOptions wl;
  wl.objects_per_node = 2;
  wl.payload_words = 64;
  wl.routes = 8;
  wl.route_length = 4;
  wl.seed = seed;
  return wl;
}

std::size_t hosted_count(Cluster& cluster, NodeId node) {
  std::size_t n = 0;
  cluster.node(node).for_each_local_object([&](MobilePtr) { ++n; });
  return n;
}

/// Digest of the same seeded workload on a static-membership cluster.
std::uint64_t static_twin_digest(std::uint64_t seed) {
  Cluster cluster(det_options());
  chaos::HopWorkload workload(cluster, small_workload(seed));
  workload.create_objects();
  workload.inject();
  const auto report = cluster.run();
  EXPECT_FALSE(report.timed_out);
  EXPECT_EQ(workload.executed_hops(), workload.expected_hops());
  return workload.state_digest();
}

// --------------------------------------------------------------------------
// planned drain

TEST(MembershipDrain, EmptiesTheNodeExactlyOnceAndStateMatchesTwin) {
  MembershipOptions mo;
  mo.events = {{.step = 1, .kind = Kind::kDrain, .node = 1}};
  MembershipManager mgr(mo);
  ClusterOptions o = det_options();
  mgr.instrument(o);
  Cluster cluster(o);
  mgr.attach(cluster);

  chaos::HopWorkload workload(cluster, small_workload(11));
  workload.create_objects();
  ASSERT_EQ(hosted_count(cluster, 1), 2u);  // round-robin creation
  workload.inject();
  const auto report = cluster.run();
  ASSERT_FALSE(report.timed_out);

  EXPECT_EQ(mgr.state(1), MembershipState::kDown);
  EXPECT_TRUE(mgr.node_departed(1));
  EXPECT_FALSE(mgr.node_up(1));
  EXPECT_FALSE(mgr.node_accepting(1));
  EXPECT_EQ(mgr.live_nodes(), 2u);
  // Exactly once: both hosted objects migrated out, neither counted twice.
  EXPECT_EQ(mgr.stats().drains, 1u);
  EXPECT_EQ(mgr.stats().objects_drained, 2u);
  EXPECT_EQ(mgr.stats().objects_lost, 0u);
  EXPECT_EQ(hosted_count(cluster, 1), 0u);
  EXPECT_EQ(workload.executed_hops(), workload.expected_hops());
  EXPECT_EQ(workload.state_digest(), static_twin_digest(11));

  // A second quiescent run must not drain (or count) anything again.
  (void)cluster.run();
  EXPECT_EQ(mgr.stats().drains, 1u);
  EXPECT_EQ(mgr.stats().objects_drained, 2u);
}

TEST(MembershipDrain, DoubleDrainIsIdempotent) {
  MembershipOptions mo;
  mo.events = {{.step = 1, .kind = Kind::kDrain, .node = 1},
               {.step = 2, .kind = Kind::kDrain, .node = 1}};
  MembershipManager mgr(mo);
  ClusterOptions o = det_options();
  mgr.instrument(o);
  Cluster cluster(o);
  mgr.attach(cluster);

  chaos::HopWorkload workload(cluster, small_workload(12));
  workload.create_objects();
  workload.inject();
  const auto report = cluster.run();
  ASSERT_FALSE(report.timed_out);

  EXPECT_EQ(mgr.stats().drains, 1u);
  EXPECT_EQ(mgr.stats().objects_drained, 2u);
  EXPECT_TRUE(mgr.all_events_fired());
  EXPECT_EQ(workload.executed_hops(), workload.expected_hops());
}

// Satellite regression: a migrate() naming a departed node must be refused
// up front — counter + ledger record — never parked against a node that
// will not return.
TEST(MembershipDrain, MigrateToDownNodeIsRefusedWithLedgerRecord) {
  MembershipOptions mo;
  mo.events = {{.step = 1, .kind = Kind::kDrain, .node = 1}};
  MembershipManager mgr(mo);
  ClusterOptions o = det_options();
  mgr.instrument(o);
  Cluster cluster(o);
  mgr.attach(cluster);

  chaos::HopWorkload workload(cluster, small_workload(13));
  workload.create_objects();
  workload.inject();
  ASSERT_FALSE(cluster.run().timed_out);
  ASSERT_EQ(mgr.state(1), MembershipState::kDown);

  const MobilePtr victim = workload.objects()[0];  // created on node 0
  ASSERT_TRUE(cluster.node(0).hosts(victim));
  cluster.node(0).migrate(victim, 1);
  const auto report = cluster.run();  // must quiesce, not hang
  ASSERT_FALSE(report.timed_out);

  EXPECT_TRUE(cluster.node(0).hosts(victim));
  EXPECT_GE(cluster.node(0).counters().migrations_refused.load(), 1u);
  bool recorded = false;
  for (const auto& rec : cluster.node(0).failure_ledger().snapshot()) {
    recorded |= rec.object == victim && rec.op == FailureOp::kMigrate &&
                rec.resolution == FailureResolution::kRefused;
  }
  EXPECT_TRUE(recorded) << "no kMigrate/kRefused ledger record";
}

// --------------------------------------------------------------------------
// crash + rejoin

TEST(MembershipCrash, ObjectsAreRebuiltOnSurvivorsAndRejoinStartsEmpty) {
  MembershipOptions mo;
  mo.events = {{.step = 2, .kind = Kind::kKill, .node = 2},
               {.step = 30, .kind = Kind::kRejoin, .node = 2}};
  MembershipManager mgr(mo);
  ClusterOptions o = det_options();
  mgr.instrument(o);
  Cluster cluster(o);
  mgr.attach(cluster);

  chaos::HopWorkload workload(cluster, small_workload(14));
  workload.create_objects();
  ASSERT_EQ(hosted_count(cluster, 2), 2u);
  workload.inject();
  const auto report = cluster.run();
  ASSERT_FALSE(report.timed_out);

  EXPECT_EQ(mgr.stats().kills, 1u);
  EXPECT_EQ(mgr.stats().rejoins, 1u);
  EXPECT_EQ(mgr.stats().objects_rebuilt, 2u);
  EXPECT_EQ(mgr.stats().objects_lost, 0u);
  // Back as a fresh, empty, fully accepting member.
  EXPECT_EQ(mgr.state(2), MembershipState::kUp);
  EXPECT_FALSE(mgr.node_departed(2));
  EXPECT_TRUE(mgr.node_accepting(2));
  EXPECT_EQ(hosted_count(cluster, 2), 0u);
  EXPECT_EQ(mgr.live_nodes(), 3u);
  // Exactly-once survived the crash: no hop lost, none duplicated, and the
  // digest matches a run where the node never died.
  EXPECT_EQ(workload.executed_hops(), workload.expected_hops());
  EXPECT_EQ(workload.state_digest(), static_twin_digest(14));
}

// --------------------------------------------------------------------------
// speculative work stealing

class StealWork : public MobileObject {
 public:
  void serialize(util::ByteWriter& out) const override {
    out.write(done);
    out.write_vector(ballast);
  }
  void deserialize(util::ByteReader& in) override {
    done = in.read<std::uint64_t>();
    ballast = in.read_vector<std::uint64_t>();
  }
  [[nodiscard]] std::size_t footprint_bytes() const override {
    return sizeof(StealWork) + ballast.size() * 8;
  }

  std::uint64_t done = 0;
  std::vector<std::uint64_t> ballast = std::vector<std::uint64_t>(256, 7);
};

struct StealWorld {
  std::unique_ptr<Cluster> cluster;
  std::vector<MobilePtr> ptrs;
  TypeId type = 0;
  HandlerId handler = 0;

  explicit StealWorld(MembershipManager* mgr, std::size_t objects = 8,
                      std::size_t messages_per_object = 8) {
    ClusterOptions o = det_options(2);
    if (mgr != nullptr) mgr->instrument(o);
    cluster = std::make_unique<Cluster>(o);
    if (mgr != nullptr) mgr->attach(*cluster);
    type = cluster->registry().register_type<StealWork>("steal_work");
    handler = cluster->registry().register_handler(
        type, [](Runtime&, MobileObject& obj, MobilePtr, NodeId,
                 util::ByteReader&) { ++static_cast<StealWork&>(obj).done; });
    // Everything on node 0: a steady imbalance the monitor must act on.
    for (std::size_t i = 0; i < objects; ++i) {
      ptrs.push_back(cluster->node(0).create<StealWork>(type).first);
    }
    for (std::size_t round = 0; round < messages_per_object; ++round) {
      for (MobilePtr p : ptrs) {
        cluster->node(0).send(p, handler, std::vector<std::byte>{});
      }
    }
  }

  [[nodiscard]] std::uint64_t total_done() {
    std::uint64_t total = 0;
    for (MobilePtr p : ptrs) {
      for (std::size_t n = 0; n < cluster->size(); ++n) {
        if (auto* obj = cluster->node(static_cast<NodeId>(n)).peek(p)) {
          total += static_cast<StealWork*>(obj)->done;
        }
      }
    }
    return total;
  }
};

TEST(MembershipSteal, CommittedStealsMatchTheNoStealTwin) {
  MembershipOptions mo;
  mo.work_stealing = true;
  mo.steal_check_interval = 2;
  mo.steal_min_queue = 4;
  MembershipManager mgr(mo);
  StealWorld world(&mgr);
  ASSERT_FALSE(world.cluster->run().timed_out);

  EXPECT_GE(mgr.stats().steals_claimed, 1u);
  EXPECT_GE(mgr.stats().steals_committed, 1u);
  EXPECT_EQ(mgr.stats().steals_claimed,
            mgr.stats().steals_committed + mgr.stats().steals_aborted);
  EXPECT_EQ(mgr.pending_steals(), 0u);
  EXPECT_EQ(world.cluster->node(0).stolen_entries(), 0u);
  EXPECT_EQ(world.total_done(), 64u);  // every message exactly once

  StealWorld twin(nullptr);
  ASSERT_FALSE(twin.cluster->run().timed_out);
  EXPECT_EQ(world.total_done(), twin.total_done());
}

TEST(MembershipSteal, ConflictingMutationRollsTheClaimBack) {
  StealWorld world(nullptr, /*objects=*/1, /*messages_per_object=*/4);
  Runtime& victim = world.cluster->node(0);
  const MobilePtr p = world.ptrs[0];

  std::vector<std::byte> frame;
  ASSERT_TRUE(victim.steal_claim(p, frame));
  EXPECT_EQ(victim.stolen_entries(), 1u);
  // An arrival inside the speculation window is a conflicting mutation: the
  // claim must roll back from the checkpoint frame, keeping the message.
  victim.send(p, world.handler, std::vector<std::byte>{});
  EXPECT_FALSE(victim.steal_resolve(p, 1, std::move(frame)));
  EXPECT_EQ(victim.stolen_entries(), 0u);

  ASSERT_FALSE(world.cluster->run().timed_out);
  EXPECT_TRUE(victim.hosts(p));
  EXPECT_EQ(world.total_done(), 5u);  // 4 queued + 1 conflicting, no loss
}

TEST(MembershipSteal, CleanClaimCommitsToTheThief) {
  StealWorld world(nullptr, /*objects=*/1, /*messages_per_object=*/4);
  Runtime& victim = world.cluster->node(0);
  const MobilePtr p = world.ptrs[0];

  std::vector<std::byte> frame;
  ASSERT_TRUE(victim.steal_claim(p, frame));
  EXPECT_TRUE(victim.steal_resolve(p, 1, std::move(frame)));
  ASSERT_FALSE(world.cluster->run().timed_out);

  EXPECT_FALSE(victim.hosts(p));
  EXPECT_TRUE(world.cluster->node(1).hosts(p));
  EXPECT_EQ(world.total_done(), 4u);  // queued work executed at the thief
}

// --------------------------------------------------------------------------
// service layer over elastic membership

TEST(MembershipService, JobsWithADeadHomeAreRepairedNotHung) {
  MembershipManager mgr(MembershipOptions{});
  ClusterOptions o = det_options(3);
  o.runtime.ooc.memory_budget_bytes = 256u << 10;
  mgr.instrument(o);
  Cluster cluster(o);
  mgr.attach(cluster);

  service::ServiceOptions so;
  so.tenants = 1;
  so.preempt_enabled = false;
  service::MeshingService svc(cluster, so);
  svc.set_membership(&mgr);

  jobsim::ServiceJob job;
  job.id = 1;
  job.tenant = 0;
  job.width = 3;  // one subdomain per node, node 1 included
  job.working_set_bytes = 24u << 10;
  job.phases = 4;
  job.seed = 0xC0FFEE;
  svc.submit(job);
  ASSERT_TRUE(svc.tick());  // admit + run one phase on static membership

  // Node 1 dies and never returns; the next tick's run fires the event and
  // the tick-boundary reclaim must rebind the job to the rebuilt copies.
  mgr.schedule({.step = 1, .kind = Kind::kKill, .node = 1});
  std::uint64_t guard = 0;
  while (svc.tick() && ++guard < 64) {
  }
  ASSERT_LT(guard, 64u) << "service did not drain after the kill";

  EXPECT_FALSE(svc.stalled());
  EXPECT_TRUE(svc.drained());
  EXPECT_EQ(mgr.stats().kills, 1u);
  EXPECT_EQ(mgr.stats().objects_lost, 0u);
  EXPECT_EQ(svc.completed_count(), 1u);
  EXPECT_GE(svc.rebound_jobs() + svc.requeued_dead_jobs(), 1u);
  EXPECT_EQ(svc.expected_phase_hits(), svc.executed_phase_hits());
  for (std::size_t n = 0; n < cluster.size(); ++n) {
    EXPECT_EQ(svc.node_committed_bytes(static_cast<NodeId>(n)), 0u);
  }
}

TEST(MembershipService, AHomeDyingDuringTheLastPhaseIsPinnedAgainAndCompletes) {
  jobsim::ServiceJob job;
  job.id = 1;
  job.tenant = 0;
  job.width = 3;  // one subdomain per node, node 1 included
  job.working_set_bytes = 24u << 10;
  job.phases = 4;
  job.seed = 0xD1E5;
  service::ServiceOptions so;
  so.tenants = 1;
  so.preempt_enabled = false;

  std::uint64_t twin_digest = 0;
  {
    ClusterOptions o = det_options(3);
    o.runtime.ooc.memory_budget_bytes = 256u << 10;
    Cluster cluster(o);
    service::MeshingService svc(cluster, so);
    svc.submit(job);
    std::uint64_t guard = 0;
    while (svc.tick() && ++guard < 64) {
    }
    ASSERT_EQ(svc.completed_count(), 1u);
    twin_digest = svc.job_digest(job.id);
  }

  MembershipManager mgr(MembershipOptions{});
  ClusterOptions o = det_options(3);
  o.runtime.ooc.memory_budget_bytes = 256u << 10;
  mgr.instrument(o);
  Cluster cluster(o);
  mgr.attach(cluster);
  service::MeshingService svc(cluster, so);
  svc.set_membership(&mgr);
  svc.submit(job);
  for (int phase = 0; phase + 1 < 4; ++phase) ASSERT_TRUE(svc.tick());
  ASSERT_EQ(svc.completed_count(), 0u);

  // The fourth tick posts the last phase, so the job's objects are pinned
  // for its run, and node 1 dies inside that run. Its object is rebuilt on
  // a survivor without the pin; the tick-boundary rebind must pin it again,
  // because retiring the job unlocks every object once.
  mgr.schedule({.step = 1, .kind = Kind::kKill, .node = 1});
  bool more = true;
  EXPECT_NO_THROW(more = svc.tick());
  EXPECT_FALSE(more);
  EXPECT_EQ(mgr.stats().kills, 1u);
  EXPECT_EQ(mgr.stats().objects_lost, 0u);
  EXPECT_EQ(svc.rebound_jobs(), 1u);
  EXPECT_EQ(svc.requeued_dead_jobs(), 0u);
  EXPECT_EQ(svc.completed_count(), 1u);
  EXPECT_EQ(svc.job_digest(job.id), twin_digest);
  EXPECT_EQ(svc.expected_phase_hits(), svc.executed_phase_hits());
  for (std::size_t n = 0; n < cluster.size(); ++n) {
    EXPECT_EQ(svc.node_committed_bytes(static_cast<NodeId>(n)), 0u);
  }
}

/// Counts the sweeps of every run: a run that waits out max_run_time
/// sweeps without end, one that quiesces takes a few dozen.
class SweepCounter : public StepObserver {
 public:
  void on_step(std::uint64_t /*step*/) override { ++sweeps; }
  std::uint64_t sweeps = 0;
};

TEST(MembershipService, ADrainDuringTheLastPhaseWaitsForThePinsNotTheTimeout) {
  // Jobs 1 and 2 post their last phase in the drain's tick, so their objects
  // on node 1 are pinned for that run; jobs 3 and 4 keep running, and a
  // drain moves their objects off node 1. Job 3 posts its last phase in the
  // next tick, and pins its objects where its placement says they are.
  // Node 1 creates the objects in submission order, which is the order the
  // drain takes them in: job 3's, the two pinned ones, then job 4's.
  std::vector<jobsim::ServiceJob> jobs;
  for (const std::uint64_t id : {3u, 1u, 2u, 4u}) {
    jobsim::ServiceJob job;
    job.id = id;
    job.tenant = 0;
    job.width = id == 4 ? 2 : 3;  // every job has an object on node 1
    job.working_set_bytes = static_cast<std::size_t>(job.width) * (8u << 10);
    job.phases = id <= 2 ? 2 : (id == 3 ? 3 : 6);
    job.seed = 0xD7A1 + id;
    jobs.push_back(job);
  }
  service::ServiceOptions so;
  so.tenants = 1;
  so.preempt_enabled = false;

  std::vector<std::uint64_t> twin_digests;
  {
    ClusterOptions o = det_options(3);
    o.runtime.ooc.memory_budget_bytes = 256u << 10;
    Cluster cluster(o);
    service::MeshingService svc(cluster, so);
    for (const auto& job : jobs) svc.submit(job);
    std::uint64_t guard = 0;
    while (svc.tick() && ++guard < 64) {
    }
    ASSERT_EQ(svc.completed_count(), jobs.size());
    for (const auto& job : jobs) twin_digests.push_back(svc.job_digest(job.id));
  }

  MembershipManager mgr(MembershipOptions{});
  SweepCounter sweeps;
  ClusterOptions o = det_options(3);
  o.runtime.ooc.memory_budget_bytes = 256u << 10;
  o.max_run_time = std::chrono::seconds(5);
  o.step_observer = &sweeps;
  mgr.instrument(o);
  Cluster cluster(o);
  mgr.attach(cluster);
  service::MeshingService svc(cluster, so);
  svc.set_membership(&mgr);
  for (const auto& job : jobs) svc.submit(job);
  ASSERT_EQ(svc.running_jobs(), jobs.size());
  ASSERT_TRUE(svc.tick());
  const std::size_t slice = svc.node_committed_bytes(1) / jobs.size();

  mgr.schedule({.step = 1, .kind = Kind::kDrain, .node = 1});
  const std::uint64_t before = sweeps.sweeps;
  bool more = true;
  ASSERT_NO_THROW(more = svc.tick());
  EXPECT_TRUE(more);
  // The run ended once only the pinned objects were left on node 1, not at
  // max_run_time; the drain stays open until they are unlocked.
  EXPECT_LT(sweeps.sweeps - before, 1000u);
  EXPECT_EQ(mgr.state(1), MembershipState::kDraining);
  EXPECT_EQ(svc.completed_count(), 2u);
  // Jobs 3 and 4 follow their drained objects: node 1 holds no slice.
  EXPECT_EQ(svc.rebound_jobs(), 2u);
  EXPECT_EQ(svc.node_committed_bytes(1), 0u);
  EXPECT_EQ(svc.node_committed_bytes(0) + svc.node_committed_bytes(2),
            5 * slice);

  // The retirements unlocked the pins; the drain finishes in the next run,
  // and the moved jobs' last phases pin their objects where they now live.
  ASSERT_NO_THROW(more = svc.tick());
  EXPECT_EQ(mgr.state(1), MembershipState::kDown);
  std::uint64_t guard = 0;
  while (more && ++guard < 64) ASSERT_NO_THROW(more = svc.tick());
  ASSERT_LT(guard, 64u) << "service did not drain after the drain";

  EXPECT_FALSE(svc.stalled());
  EXPECT_EQ(mgr.stats().drains, 1u);
  EXPECT_EQ(svc.requeued_dead_jobs(), 0u);
  EXPECT_EQ(svc.completed_count(), jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_EQ(svc.job_digest(jobs[j].id), twin_digests[j])
        << "job " << jobs[j].id;
  }
  EXPECT_EQ(svc.expected_phase_hits(), svc.executed_phase_hits());
  for (std::size_t n = 0; n < cluster.size(); ++n) {
    EXPECT_EQ(svc.node_committed_bytes(static_cast<NodeId>(n)), 0u);
  }
}

}  // namespace
}  // namespace mrts::core
