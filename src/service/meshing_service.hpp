#pragma once

// MeshingService: a multi-tenant frontend above core::Cluster. Tenants
// submit meshing jobs (jobsim::ServiceJob specs) into bounded per-tenant
// queues; an AdmissionController admits them against cluster-wide memory
// budgets (never OOM — over-budget work queues, full queues shed); active
// tenants' committed bytes partition each node's out-of-core budget by
// weighted max-min fair share (Runtime::set_memory_budget, recomputed on
// every admit/complete/preempt); and long-running jobs are preempted under
// pressure via the runtime's serialization machinery — checkpointed to an
// in-memory image, destroyed, and resumed later with state byte-equal to an
// uninterrupted twin run.
//
// Time is measured in service *ticks*: one tick admits from the queues,
// posts one refinement phase per running job, drives the cluster to
// quiescence, completes finished jobs, and applies the preemption policy.
// A tick is one cluster run: a job posting its last phase is pinned in core
// before that run, so retiring it needs no second run unless one of its
// objects is still out of core (a crash rebuilt it unpinned); a preemption
// likewise runs the cluster only for objects out of core.
// Everything happens at tick boundaries, where the cluster is quiescent, so
// the service composes with the deterministic chaos driver: a seeded run
// replays byte-identically, faults and all.
//
// Observability: obs metrics `service.admitted`, `service.queued`,
// `service.sheds`, `service.preempted`, `service.completed`, per-tenant
// `service.tenant<k>.admitted_bytes` gauges, and the
// `service.admission_latency_ticks` histogram. Exact per-job admission
// latencies and per-tenant chaos::TenantWindow exports feed the
// bench_service tables and the sweep invariants.

#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "chaos/invariants.hpp"
#include "core/cluster.hpp"
#include "jobsim/jobsim.hpp"
#include "service/admission.hpp"
#include "service/job_objects.hpp"

namespace mrts::obs {
class Counter;
class Gauge;
class HistogramMetric;
}  // namespace mrts::obs

namespace mrts::service {

struct ServiceOptions {
  std::uint32_t tenants = 4;
  /// Per-tenant fair-share weights; shorter vectors pad with 1.0.
  std::vector<double> tenant_weights;
  /// Bound on each tenant's queue; submissions past it are shed. 0 = never
  /// queue-shed (the sweep's "zero sheds with adequate queues" config).
  std::size_t max_queue_per_tenant = 32;
  /// Fraction of each node's physical OOC budget the service may commit to
  /// job working sets; the rest absorbs reload overshoot and framing.
  double commit_fraction = 0.75;
  /// Node working budgets are committed bytes times this headroom, clamped
  /// to [min_node_budget_bytes, physical].
  double budget_headroom = 1.25;
  std::size_t min_node_budget_bytes = 16u << 10;
  /// Preemption policy: a queue head blocked for `patience` ticks preempts
  /// the longest-running job of the most over-share tenant, provided that
  /// victim has run at least `min_run_ticks`.
  bool preempt_enabled = true;
  std::uint64_t preempt_patience_ticks = 3;
  std::uint64_t min_run_ticks_before_preempt = 1;
  /// run_open_loop gives up (sets stalled()) past this many ticks with no
  /// forward progress safety margin. 0 derives a generous cap from the jobs.
  std::uint64_t max_ticks = 0;
};

class MeshingService {
 public:
  /// Registers the job object type and phase handler — construct before the
  /// cluster's first run() seals the registry. `admission` defaults to
  /// FairShareAdmission. The service must outlive the cluster runs it
  /// drives.
  MeshingService(core::Cluster& cluster, ServiceOptions options,
                 std::unique_ptr<AdmissionController> admission = nullptr);

  /// Installs the liveness oracle (core::MembershipManager) the service
  /// consults at tick boundaries: placement and fair shares are computed
  /// over accepting nodes only, jobs whose objects a drain moved follow
  /// them, and jobs whose homes died are rebound to the rebuilt copies (or
  /// requeued fresh) instead of hanging. nullptr restores static
  /// membership.
  void set_membership(const core::MembershipView* view) { membership_ = view; }

  /// Submits one job at the current tick: admit now, queue, or shed.
  void submit(const jobsim::ServiceJob& job);

  /// One service round (see file comment). Returns true while any job is
  /// queued or running.
  bool tick();

  /// Drives the full open-loop trace: submits each job at its arrival tick
  /// and ticks until every queue and the run list drain (or the safety cap
  /// trips — see stalled()).
  void run_open_loop(std::vector<jobsim::ServiceJob> jobs);

  /// Preempts a running job now: checkpoint its objects to an in-memory
  /// image, destroy them, release its budget, and requeue it at the head of
  /// its tenant queue. Returns false if the job is not running. Public as
  /// the preemption policy's mechanism and the phase-boundary sweep's hook.
  bool preempt_job(std::uint64_t job_id);

  // --- introspection -------------------------------------------------------

  [[nodiscard]] std::uint64_t current_tick() const { return tick_; }
  [[nodiscard]] bool drained() const;
  [[nodiscard]] bool stalled() const { return stalled_; }
  [[nodiscard]] std::size_t running_jobs() const { return running_.size(); }
  [[nodiscard]] std::size_t queued_jobs() const;

  [[nodiscard]] std::uint64_t submitted_count() const { return submitted_; }
  [[nodiscard]] std::uint64_t admitted_count() const { return admitted_; }
  [[nodiscard]] std::uint64_t shed_count() const { return shed_; }
  [[nodiscard]] std::uint64_t preempted_count() const { return preempted_; }
  [[nodiscard]] std::uint64_t completed_count() const { return completed_; }
  /// Jobs whose placement was repaired after a home node died or a drain
  /// moved an object: rebound to where the objects now live, or requeued
  /// from scratch when an object's state could not be found on any live
  /// node.
  [[nodiscard]] std::uint64_t rebound_jobs() const { return rebound_jobs_; }
  [[nodiscard]] std::uint64_t requeued_dead_jobs() const {
    return requeued_dead_jobs_;
  }

  /// Phase-handler executions the posted phases must produce / did produce;
  /// equal at drain iff the stack below lost and duplicated nothing.
  [[nodiscard]] std::uint64_t expected_phase_hits() const { return expected_hits_; }
  [[nodiscard]] std::uint64_t executed_phase_hits() const {
    return executed_hits_.load(std::memory_order_relaxed);
  }

  /// Digest of a completed job's final object states (0 if unknown): the
  /// preempted-vs-uninterrupted twin comparison.
  [[nodiscard]] std::uint64_t job_digest(std::uint64_t job_id) const;

  /// Exact admission latencies (ticks from submit to first admission), one
  /// per admitted job, in admission order.
  [[nodiscard]] const std::vector<std::uint64_t>& admission_latencies() const {
    return admission_latencies_;
  }

  /// Per-tenant windows for the chaos checkers and bench tables.
  [[nodiscard]] std::vector<chaos::TenantWindow> tenant_windows() const;

  /// Committed working-set bytes currently placed on `node`.
  [[nodiscard]] std::size_t node_committed_bytes(net::NodeId node) const {
    return committed_.at(node);
  }
  /// The committable capacity of `node` (physical budget x commit fraction).
  [[nodiscard]] std::size_t node_capacity_bytes(net::NodeId node) const;

 private:
  struct RunningJob {
    jobsim::ServiceJob spec;
    std::vector<core::MobilePtr> objects;
    std::vector<net::NodeId> homes;
    std::size_t slice_bytes = 0;  // per-node committed slice
    std::uint32_t phases_done = 0;
    std::uint64_t admit_tick = 0;
    /// Each object holds one lock_in_core pin taken by pin().
    bool pinned = false;
  };

  struct QueuedJob {
    jobsim::ServiceJob spec;
    std::uint64_t enqueue_tick = 0;
    bool latency_recorded = false;
    std::uint32_t phases_done = 0;
    /// Preempted jobs re-enter with their objects' serialized images.
    std::vector<std::vector<std::byte>> images;
  };

  [[nodiscard]] AdmissionState ledger_snapshot(std::uint32_t tenant) const;
  /// Admission attempt for a queued job; places and starts it on success.
  bool try_admit(QueuedJob& job);
  void start_job(QueuedJob& job, const std::vector<net::NodeId>& homes);
  void admit_from_queues();
  void post_phases();
  void finish_phases();
  void maybe_preempt();
  void recompute_shares();
  void repartition_budgets();
  void record_shed(std::uint32_t tenant);
  /// Repairs running jobs with a dead home node or an object that a drain
  /// moved (see set_membership). Runs at every tick boundary where the
  /// cluster is quiescent.
  void reclaim_dead_placements();
  [[nodiscard]] bool node_live(net::NodeId node) const {
    return membership_ == nullptr || membership_->node_up(node);
  }
  /// Admission capacity follows node_accepting, which folds in any gray-
  /// failure overlay (MembershipManager::set_health_view): a Suspect node
  /// keeps its running jobs but offers no capacity to new admissions until
  /// it recovers.
  [[nodiscard]] bool node_placeable(net::NodeId node) const {
    return membership_ == nullptr || membership_->node_accepting(node);
  }
  /// Locks each of the job's objects in core once and records it in
  /// RunningJob::pinned. The job's retirement (finish_phases or
  /// preempt_job) unlocks each object once.
  void pin(RunningJob& job);
  /// Whether every object of the job is in core on its home now.
  [[nodiscard]] bool in_core(const RunningJob& job) const;

  core::Cluster& cluster_;
  ServiceOptions options_;
  std::unique_ptr<AdmissionController> admission_;
  const core::MembershipView* membership_ = nullptr;  // not owned
  core::TypeId type_ = 0;
  core::HandlerId phase_handler_ = 0;

  std::uint64_t tick_ = 0;
  bool stalled_ = false;
  std::uint32_t admit_rotor_ = 0;  // round-robin start tenant for admission
  std::vector<std::deque<QueuedJob>> queues_;  // one per tenant
  std::vector<RunningJob> running_;
  std::vector<std::size_t> committed_;     // per node
  std::vector<std::size_t> tenant_bytes_;  // per tenant committed
  std::vector<std::size_t> shares_;        // last weighted max-min split
  std::vector<chaos::TenantWindow> windows_;

  std::uint64_t submitted_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t preempted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t rebound_jobs_ = 0;
  std::uint64_t requeued_dead_jobs_ = 0;
  std::uint64_t expected_hits_ = 0;
  std::atomic<std::uint64_t> executed_hits_{0};
  /// Handler-side per-tenant progress (handlers may run on node threads).
  std::unique_ptr<std::atomic<std::uint64_t>[]> tenant_hits_;

  std::vector<std::uint64_t> admission_latencies_;
  std::unordered_map<std::uint64_t, std::uint64_t> job_digests_;

  obs::Counter* m_admitted_;
  obs::Counter* m_queued_;
  obs::Counter* m_sheds_;
  obs::Counter* m_preempted_;
  obs::Counter* m_completed_;
  obs::HistogramMetric* m_admission_latency_;
  std::vector<obs::Gauge*> m_tenant_bytes_;
};

}  // namespace mrts::service
