// Preemption correctness (ctest label "service"): a job checkpointed at ANY
// phase boundary — serialized to images, destroyed, budget released, then
// resumed on whatever nodes are free — must finish with a state digest
// byte-equal to an uninterrupted twin run of the same spec. Phase mutations
// are a pure function of (job seed, phase, object index), never of
// placement or tick, which is exactly what makes this hold.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "service/meshing_service.hpp"

namespace mrts::service {
namespace {

core::ClusterOptions cluster_options(std::size_t nodes,
                                     std::size_t budget_bytes) {
  core::ClusterOptions o;
  o.nodes = nodes;
  o.runtime.ooc.memory_budget_bytes = budget_bytes;
  o.spill = core::SpillMedium::kMemory;
  return o;
}

jobsim::ServiceJob spec(jobsim::JobClass cls, std::uint32_t phases) {
  jobsim::ServiceJob j;
  j.id = 42;
  j.tenant = 0;
  j.job_class = cls;
  j.width = 2;
  j.working_set_bytes = 48u << 10;
  j.phases = phases;
  j.seed = 0xFEEDFACEull + static_cast<std::uint64_t>(cls);
  return j;
}

ServiceOptions manual_options() {
  ServiceOptions so;
  so.tenants = 1;
  so.preempt_enabled = false;  // the tests drive preempt_job directly
  return so;
}

/// The job's digest after an uninterrupted run.
std::uint64_t twin_digest(const jobsim::ServiceJob& j) {
  core::Cluster cluster(cluster_options(2, 256u << 10));
  MeshingService svc(cluster, manual_options());
  svc.submit(j);
  while (svc.tick()) {
  }
  EXPECT_EQ(svc.completed_count(), 1u);
  return svc.job_digest(j.id);
}

/// The job's digest when preempted after `boundary` completed phases and
/// resumed by the next tick's admission pass.
std::uint64_t preempted_digest(const jobsim::ServiceJob& j,
                               std::uint32_t boundary,
                               std::uint64_t* preempted_out = nullptr) {
  core::Cluster cluster(cluster_options(2, 256u << 10));
  MeshingService svc(cluster, manual_options());
  svc.submit(j);
  for (std::uint32_t t = 0; t < boundary; ++t) {
    EXPECT_TRUE(svc.tick());
  }
  EXPECT_TRUE(svc.preempt_job(j.id));
  EXPECT_EQ(svc.running_jobs(), 0u);
  EXPECT_EQ(svc.queued_jobs(), 1u);
  while (svc.tick()) {
  }
  EXPECT_EQ(svc.completed_count(), 1u);
  EXPECT_EQ(svc.expected_phase_hits(), svc.executed_phase_hits())
      << "preemption must neither drop nor replay a phase";
  if (preempted_out != nullptr) *preempted_out = svc.preempted_count();
  return svc.job_digest(j.id);
}

class PreemptEveryBoundary
    : public ::testing::TestWithParam<jobsim::JobClass> {};

TEST_P(PreemptEveryBoundary, ResumedDigestEqualsUninterruptedTwin) {
  const jobsim::ServiceJob j = spec(GetParam(), 5);
  const std::uint64_t twin = twin_digest(j);
  ASSERT_NE(twin, 0u);
  for (std::uint32_t boundary = 0; boundary < j.phases; ++boundary) {
    std::uint64_t preemptions = 0;
    const std::uint64_t resumed = preempted_digest(j, boundary, &preemptions);
    EXPECT_EQ(preemptions, 1u) << "boundary " << boundary;
    EXPECT_EQ(resumed, twin)
        << to_string(GetParam()) << " diverges when preempted after phase "
        << boundary;
  }
}

INSTANTIATE_TEST_SUITE_P(AllJobClasses, PreemptEveryBoundary,
                         ::testing::Values(jobsim::JobClass::kUpdr,
                                           jobsim::JobClass::kNupdr,
                                           jobsim::JobClass::kPcdm));

TEST(Preempt, SurvivesBackToBackPreemptions) {
  const jobsim::ServiceJob j = spec(jobsim::JobClass::kNupdr, 6);
  const std::uint64_t twin = twin_digest(j);

  core::Cluster cluster(cluster_options(2, 256u << 10));
  MeshingService svc(cluster, manual_options());
  svc.submit(j);
  svc.tick();
  ASSERT_TRUE(svc.preempt_job(j.id));  // after phase 0
  svc.tick();                          // resume, run phase 1
  svc.tick();                          // phase 2
  ASSERT_TRUE(svc.preempt_job(j.id));  // after phase 2
  while (svc.tick()) {
  }
  EXPECT_EQ(svc.preempted_count(), 2u);
  EXPECT_EQ(svc.completed_count(), 1u);
  EXPECT_EQ(svc.job_digest(j.id), twin);
}

TEST(Preempt, ObjectMissingAfterLockAndRunThrowsNamingJobAndObject) {
  // Every run times out before its first sweep, so a spilled object that
  // preempt_job locks is never reloaded. The service must report that as a
  // logic error, not dereference a null object.
  core::ClusterOptions o = cluster_options(2, 256u << 10);
  o.deterministic = true;
  o.max_run_time = std::chrono::seconds(0);
  core::Cluster cluster(o);
  MeshingService svc(cluster, manual_options());
  const jobsim::ServiceJob j = spec(jobsim::JobClass::kUpdr, 4);
  svc.submit(j);
  svc.tick();
  ASSERT_EQ(svc.running_jobs(), 1u);
  for (std::size_t n = 0; n < cluster.size(); ++n) {
    cluster.node(static_cast<net::NodeId>(n)).set_memory_budget(0);
  }
  try {
    svc.preempt_job(j.id);
    FAIL() << "preempt_job returned with its objects out of core";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("job 42 object "), std::string::npos) << what;
  }
}

TEST(Preempt, PreemptingAnUnknownJobIsANoOp) {
  core::Cluster cluster(cluster_options(2, 256u << 10));
  MeshingService svc(cluster, manual_options());
  EXPECT_FALSE(svc.preempt_job(999));
}

// The policy end of the mechanism: a starved queue head past its patience
// preempts the hogging tenant, runs, and the victim still completes with a
// twin-equal digest.
TEST(Preempt, PolicyPreemptsTheHogAndBothTenantsFinish) {
  jobsim::ServiceJob hog = spec(jobsim::JobClass::kUpdr, 12);
  hog.id = 1;
  hog.tenant = 0;
  hog.width = 1;
  hog.working_set_bytes = 40u << 10;
  const std::uint64_t hog_twin = twin_digest(hog);

  core::Cluster cluster(cluster_options(1, 64u << 10));
  ServiceOptions so;
  so.tenants = 2;
  so.preempt_enabled = true;
  so.preempt_patience_ticks = 3;
  so.min_run_ticks_before_preempt = 1;
  MeshingService svc(cluster, so);

  jobsim::ServiceJob vip = spec(jobsim::JobClass::kPcdm, 2);
  vip.id = 2;
  vip.tenant = 1;
  vip.width = 1;
  vip.working_set_bytes = 40u << 10;

  svc.submit(hog);  // fills the single node's committable capacity
  svc.tick();
  svc.submit(vip);  // queues behind the hog
  while (svc.tick()) {
  }
  EXPECT_TRUE(svc.drained());
  EXPECT_FALSE(svc.stalled());
  EXPECT_GE(svc.preempted_count(), 1u);
  EXPECT_EQ(svc.completed_count(), 2u);
  EXPECT_EQ(svc.shed_count(), 0u);
  // The preempted hog still ends byte-equal to its uninterrupted twin.
  EXPECT_EQ(svc.job_digest(hog.id), hog_twin);
  const auto windows = svc.tenant_windows();
  EXPECT_EQ(windows[1].completed, 1u);
  EXPECT_GE(windows[0].preempted, 1u);
}

}  // namespace
}  // namespace mrts::service
