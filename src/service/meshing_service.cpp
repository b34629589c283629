#include "service/meshing_service.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "service/fair_share.hpp"
#include "util/format.hpp"

namespace mrts::service {
namespace {

constexpr std::uint8_t kModeDirect = 0;
constexpr std::uint8_t kModeChain = 1;

/// The object behind `ptr`, which the caller pinned in core before a run
/// that reloaded it. Throws std::logic_error naming the job and the object
/// when it is not in core: a run that ended before the reload landed must
/// fail loudly, not dereference null or drop the object from a digest.
core::MobileObject& locked_object(core::Runtime& rt, std::uint64_t job_id,
                                  core::MobilePtr ptr) {
  core::MobileObject* obj = rt.peek(ptr);
  if (obj == nullptr) {
    throw std::logic_error(
        util::format("service: job {} object {} not in core after lock+run",
                     job_id, core::to_string(ptr)));
  }
  return *obj;
}

}  // namespace

MeshingService::MeshingService(core::Cluster& cluster, ServiceOptions options,
                               std::unique_ptr<AdmissionController> admission)
    : cluster_(cluster),
      options_(std::move(options)),
      admission_(admission ? std::move(admission)
                           : std::make_unique<FairShareAdmission>()) {
  if (options_.tenants == 0) options_.tenants = 1;
  options_.tenant_weights.resize(options_.tenants, 1.0);
  queues_.resize(options_.tenants);
  committed_.assign(cluster_.size(), 0);
  tenant_bytes_.assign(options_.tenants, 0);
  shares_.assign(options_.tenants, 0);
  windows_.resize(options_.tenants);
  tenant_hits_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(options_.tenants);
  for (std::uint32_t t = 0; t < options_.tenants; ++t) {
    windows_[t].tenant = t;
    windows_[t].weight = options_.tenant_weights[t];
  }

  auto& metrics = obs::MetricsRegistry::global();
  m_admitted_ = &metrics.counter("service.admitted");
  m_queued_ = &metrics.counter("service.queued");
  m_sheds_ = &metrics.counter("service.sheds");
  m_preempted_ = &metrics.counter("service.preempted");
  m_completed_ = &metrics.counter("service.completed");
  m_admission_latency_ = &metrics.histogram("service.admission_latency_ticks");
  for (std::uint32_t t = 0; t < options_.tenants; ++t) {
    m_tenant_bytes_.push_back(&metrics.gauge(
        util::format("service.tenant{}.admitted_bytes", t)));
  }

  type_ = cluster_.registry().register_type<ServiceJobObject>("service-job");
  phase_handler_ = cluster_.registry().register_handler(
      type_, [this](core::Runtime& rt, core::MobileObject& obj,
                    core::MobilePtr /*self*/, net::NodeId /*src*/,
                    util::ByteReader& in) {
        const auto mode = in.read<std::uint8_t>();
        const auto tenant = in.read<std::uint32_t>();
        const auto value = in.read<std::uint64_t>();
        apply_phase_hit(static_cast<ServiceJobObject&>(obj), value);
        executed_hits_.fetch_add(1, std::memory_order_relaxed);
        if (tenant < options_.tenants) {
          tenant_hits_[tenant].fetch_add(1, std::memory_order_relaxed);
        }
        if (mode == kModeChain) {
          const auto idx = in.read<std::uint32_t>();
          const auto route = in.read_vector<std::uint64_t>();
          if (idx + 1 < route.size()) {
            util::ByteWriter w(route.size() * 8 + 24);
            w.write(kModeChain);
            w.write(tenant);
            w.write(value);
            w.write<std::uint32_t>(idx + 1);
            w.write_vector(route);
            rt.send(core::MobilePtr{route[idx + 1]}, phase_handler_, w.take());
          }
        }
      });
}

std::size_t MeshingService::node_capacity_bytes(net::NodeId node) const {
  const auto physical =
      cluster_.node(node).options().ooc.memory_budget_bytes;
  return static_cast<std::size_t>(static_cast<double>(physical) *
                                  options_.commit_fraction);
}

AdmissionState MeshingService::ledger_snapshot(std::uint32_t /*tenant*/) const {
  AdmissionState s;
  s.node_headroom_bytes.reserve(cluster_.size());
  for (std::size_t n = 0; n < cluster_.size(); ++n) {
    const auto id = static_cast<net::NodeId>(n);
    // Draining/down nodes contribute no committable capacity.
    const std::size_t cap = node_placeable(id) ? node_capacity_bytes(id) : 0;
    s.capacity_bytes += cap;
    s.node_headroom_bytes.push_back(cap > committed_[n] ? cap - committed_[n]
                                                        : 0);
  }
  s.tenant_admitted_bytes = tenant_bytes_;
  s.tenant_weights = options_.tenant_weights;
  s.max_queue_per_tenant = options_.max_queue_per_tenant;
  return s;
}

void MeshingService::record_shed(std::uint32_t tenant) {
  ++shed_;
  ++windows_[tenant].shed;
  m_sheds_->inc();
}

void MeshingService::submit(const jobsim::ServiceJob& job_in) {
  jobsim::ServiceJob job = job_in;
  job.width = std::clamp(job.width, 1,
                         static_cast<int>(cluster_.size()));
  if (job.tenant >= options_.tenants) job.tenant %= options_.tenants;
  ++submitted_;
  ++windows_[job.tenant].submitted;

  QueuedJob qj;
  qj.spec = job;
  qj.enqueue_tick = tick_;

  auto& queue = queues_[job.tenant];
  JobRequest req{job.tenant, job.width, job.working_set_bytes, false};
  AdmissionState state = ledger_snapshot(job.tenant);
  state.tenant_queue_depth = queue.size();
  const AdmissionDecision d = admission_->decide(req, state);
  // FIFO within a tenant: a submission may only overtake an empty queue.
  if (d.action == AdmissionAction::kAdmit && queue.empty() && try_admit(qj)) {
    return;
  }
  if (d.action == AdmissionAction::kShed) {
    record_shed(job.tenant);
    return;
  }
  queue.push_back(std::move(qj));
  m_queued_->inc();
}

bool MeshingService::try_admit(QueuedJob& qj) {
  const auto& spec = qj.spec;
  const std::size_t slice =
      per_node_slice_bytes(spec.working_set_bytes, spec.width);
  // Pick the `width` most-headroomed nodes that each hold a slice; stable
  // by node id so placement is deterministic.
  std::vector<net::NodeId> candidates;
  for (std::size_t n = 0; n < cluster_.size(); ++n) {
    const auto id = static_cast<net::NodeId>(n);
    if (!node_placeable(id)) continue;
    const std::size_t cap = node_capacity_bytes(id);
    if (cap >= committed_[n] && cap - committed_[n] >= slice) {
      candidates.push_back(id);
    }
  }
  if (candidates.size() < static_cast<std::size_t>(spec.width)) return false;
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](net::NodeId a, net::NodeId b) {
                     const std::size_t ha = node_capacity_bytes(a) - committed_[a];
                     const std::size_t hb = node_capacity_bytes(b) - committed_[b];
                     if (ha != hb) return ha > hb;
                     return a < b;
                   });
  candidates.resize(static_cast<std::size_t>(spec.width));
  std::sort(candidates.begin(), candidates.end());
  start_job(qj, candidates);
  return true;
}

void MeshingService::start_job(QueuedJob& qj,
                               const std::vector<net::NodeId>& homes) {
  const auto& spec = qj.spec;
  const std::size_t slice =
      per_node_slice_bytes(spec.working_set_bytes, spec.width);
  const bool resuming = !qj.images.empty();

  RunningJob rj;
  rj.spec = spec;
  rj.homes = homes;
  rj.slice_bytes = slice;
  rj.phases_done = qj.phases_done;
  rj.admit_tick = tick_;
  const std::size_t words = std::max<std::size_t>(
      1, spec.working_set_bytes /
             static_cast<std::size_t>(std::max(spec.width, 1)) /
             sizeof(std::uint64_t));
  for (std::size_t i = 0; i < homes.size(); ++i) {
    auto& rt = cluster_.node(homes[i]);
    if (resuming) {
      auto obj = std::make_unique<ServiceJobObject>();
      util::ByteReader r(qj.images[i]);
      obj->deserialize(r);
      rj.objects.push_back(rt.adopt(type_, std::move(obj)));
    } else {
      auto [ptr, obj] = rt.create<ServiceJobObject>(type_);
      obj->job_id = spec.id;
      obj->index = static_cast<std::uint32_t>(i);
      fill_ballast(*obj, spec.seed, words);
      rt.refresh_footprint(ptr);
      rj.objects.push_back(ptr);
    }
    committed_[homes[i]] += slice;
  }
  tenant_bytes_[spec.tenant] += spec.working_set_bytes;

  auto& w = windows_[spec.tenant];
  w.admitted_bytes += spec.working_set_bytes;
  w.peak_admitted_bytes = std::max(w.peak_admitted_bytes, w.admitted_bytes);
  if (!qj.latency_recorded) {
    ++admitted_;
    ++w.admitted;
    m_admitted_->inc();
    const std::uint64_t wait = tick_ - qj.enqueue_tick;
    admission_latencies_.push_back(wait);
    m_admission_latency_->observe(wait);
    qj.latency_recorded = true;
  }

  recompute_shares();
  // The fair-share gate admits only demand-satisfying jobs, so committed
  // bytes can never land above the tenant's share at decision time; record
  // the regression if they somehow do.
  if (tenant_bytes_[spec.tenant] > shares_[spec.tenant]) {
    ++windows_[spec.tenant].over_share_admissions;
  }
  repartition_budgets();
  running_.push_back(std::move(rj));
}

void MeshingService::admit_from_queues() {
  for (std::uint32_t k = 0; k < options_.tenants; ++k) {
    const std::uint32_t t = (admit_rotor_ + k) % options_.tenants;
    auto& queue = queues_[t];
    while (!queue.empty()) {
      QueuedJob& head = queue.front();
      JobRequest req{t, head.spec.width, head.spec.working_set_bytes,
                     !head.images.empty()};
      AdmissionState state = ledger_snapshot(t);
      state.tenant_queue_depth = queue.size() - 1;
      const AdmissionDecision d = admission_->decide(req, state);
      if (d.action == AdmissionAction::kShed) {
        record_shed(t);
        queue.pop_front();
        continue;
      }
      if (d.action != AdmissionAction::kAdmit || !try_admit(head)) break;
      queue.pop_front();
    }
  }
}

void MeshingService::post_phases() {
  for (auto& rj : running_) {
    const auto& spec = rj.spec;
    // A job posting its last phase is pinned now, so this tick's run
    // reloads its objects once and leaves them in core for finish_phases.
    if (rj.phases_done + 1 >= spec.phases) pin(rj);
    const std::uint64_t value = phase_value(spec.seed, rj.phases_done);
    auto direct = [&](std::size_t i) {
      util::ByteWriter w(16);
      w.write(kModeDirect);
      w.write(spec.tenant);
      w.write(value);
      cluster_.node(rj.homes[i]).send(rj.objects[i], phase_handler_,
                                      w.take());
      ++expected_hits_;
    };
    switch (spec.job_class) {
      case jobsim::JobClass::kUpdr:
        // Uniform refinement: every subdomain refines each phase.
        for (std::size_t i = 0; i < rj.objects.size(); ++i) direct(i);
        break;
      case jobsim::JobClass::kNupdr: {
        // Non-uniform: the refinement front sweeps the subdomains in order.
        std::vector<std::uint64_t> route;
        route.reserve(rj.objects.size());
        for (const auto& p : rj.objects) route.push_back(p.id);
        util::ByteWriter w(route.size() * 8 + 24);
        w.write(kModeChain);
        w.write(spec.tenant);
        w.write(value);
        w.write<std::uint32_t>(0);
        w.write_vector(route);
        cluster_.node(rj.homes[0]).send(rj.objects[0], phase_handler_,
                                        w.take());
        expected_hits_ += rj.objects.size();
        break;
      }
      case jobsim::JobClass::kPcdm:
        // Constrained Delaunay: alternating halves refine per phase (the
        // parity is the absolute phase number, so a preempted job resumes
        // the same schedule).
        for (std::size_t i = 0; i < rj.objects.size(); ++i) {
          if ((i + rj.phases_done) % 2 == 0) direct(i);
        }
        break;
    }
  }
}

void MeshingService::pin(RunningJob& job) {
  assert(!job.pinned);  // every pinned job retires in the tick that pins it
  for (std::size_t i = 0; i < job.objects.size(); ++i) {
    cluster_.node(job.homes[i]).lock_in_core(job.objects[i]);
  }
  job.pinned = true;
}

bool MeshingService::in_core(const RunningJob& job) const {
  for (std::size_t i = 0; i < job.objects.size(); ++i) {
    if (!cluster_.node(job.homes[i]).is_in_core(job.objects[i])) return false;
  }
  return true;
}

void MeshingService::finish_phases() {
  std::vector<std::size_t> done;
  for (std::size_t j = 0; j < running_.size(); ++j) {
    ++running_[j].phases_done;
    if (running_[j].phases_done >= running_[j].spec.phases) done.push_back(j);
  }
  if (done.empty()) return;
  // post_phases pinned these jobs before the tick's run, which reloaded
  // their objects. Run again only for one still out of core: a copy that a
  // crash rebuilt unpinned, and reclaim_dead_placements pinned afterwards.
  if (!std::all_of(done.begin(), done.end(),
                   [&](std::size_t j) { return in_core(running_[j]); })) {
    cluster_.run();
  }

  for (std::size_t j : done) {
    RunningJob& rj = running_[j];
    std::uint64_t digest = 0;
    for (std::size_t i = 0; i < rj.objects.size(); ++i) {
      auto& rt = cluster_.node(rj.homes[i]);
      digest ^= object_digest(static_cast<const ServiceJobObject&>(
          locked_object(rt, rj.spec.id, rj.objects[i])));
      rt.unlock(rj.objects[i]);
      rt.destroy(rj.objects[i]);
      assert(committed_[rj.homes[i]] >= rj.slice_bytes);
      committed_[rj.homes[i]] -= rj.slice_bytes;
    }
    const auto t = rj.spec.tenant;
    tenant_bytes_[t] -= std::min(tenant_bytes_[t], rj.spec.working_set_bytes);
    auto& w = windows_[t];
    w.admitted_bytes -=
        std::min(w.admitted_bytes, rj.spec.working_set_bytes);
    ++w.completed;
    ++completed_;
    m_completed_->inc();
    job_digests_[rj.spec.id] = digest;
  }
  // Erase back-to-front so the collected indices stay valid.
  for (auto it = done.rbegin(); it != done.rend(); ++it) {
    running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(*it));
  }
  recompute_shares();
  repartition_budgets();
}

bool MeshingService::preempt_job(std::uint64_t job_id) {
  auto it = std::find_if(running_.begin(), running_.end(), [&](const auto& r) {
    return r.spec.id == job_id;
  });
  if (it == running_.end()) return false;
  RunningJob rj = std::move(*it);
  running_.erase(it);

  pin(rj);
  if (!in_core(rj)) cluster_.run();  // reloads what the pins asked for

  QueuedJob qj;
  qj.spec = rj.spec;
  qj.enqueue_tick = tick_;
  qj.latency_recorded = true;  // admission latency counts the first admit
  qj.phases_done = rj.phases_done;
  qj.images.reserve(rj.objects.size());
  for (std::size_t i = 0; i < rj.objects.size(); ++i) {
    auto& rt = cluster_.node(rj.homes[i]);
    const core::MobileObject& obj =
        locked_object(rt, rj.spec.id, rj.objects[i]);
    util::ByteWriter w(obj.footprint_bytes() + 64);
    obj.serialize(w);
    qj.images.push_back(w.take());
    rt.unlock(rj.objects[i]);
    rt.destroy(rj.objects[i]);
    assert(committed_[rj.homes[i]] >= rj.slice_bytes);
    committed_[rj.homes[i]] -= rj.slice_bytes;
  }
  const auto t = rj.spec.tenant;
  tenant_bytes_[t] -= std::min(tenant_bytes_[t], rj.spec.working_set_bytes);
  auto& w = windows_[t];
  w.admitted_bytes -= std::min(w.admitted_bytes, rj.spec.working_set_bytes);
  ++w.preempted;
  ++preempted_;
  m_preempted_->inc();
  queues_[t].push_front(std::move(qj));

  recompute_shares();
  repartition_budgets();
  return true;
}

void MeshingService::maybe_preempt() {
  if (!options_.preempt_enabled) return;
  for (std::uint32_t k = 0; k < options_.tenants; ++k) {
    const std::uint32_t t = (admit_rotor_ + k) % options_.tenants;
    auto& queue = queues_[t];
    if (queue.empty()) continue;
    QueuedJob& head = queue.front();
    if (tick_ - head.enqueue_tick < options_.preempt_patience_ticks) continue;

    // The head has been blocked past patience: preempt the longest-running
    // eligible job of another tenant, most-over-share tenants first.
    const RunningJob* victim = nullptr;
    for (const RunningJob& r : running_) {
      if (r.spec.tenant == t) continue;
      if (tick_ - r.admit_tick < options_.min_run_ticks_before_preempt) {
        continue;
      }
      auto overhang = [&](const RunningJob& j) {
        const auto bytes = tenant_bytes_[j.spec.tenant];
        const auto share = shares_[j.spec.tenant];
        return bytes > share ? bytes - share : 0;
      };
      if (victim == nullptr) {
        victim = &r;
        continue;
      }
      const auto ov = overhang(r), ob = overhang(*victim);
      if (ov != ob ? ov > ob
                   : (r.admit_tick != victim->admit_tick
                          ? r.admit_tick < victim->admit_tick
                          : r.spec.working_set_bytes >
                                victim->spec.working_set_bytes)) {
        victim = &r;
      }
    }
    if (victim == nullptr) continue;
    preempt_job(victim->spec.id);
    // Retry the starved head right away: the freed budget is what the
    // preemption was for. (preempt_job may have requeued the victim at its
    // own tenant's head; only this head is retried here.)
    if (!queue.empty() && try_admit(queue.front())) queue.pop_front();
    return;  // at most one preemption per tick
  }
}

void MeshingService::recompute_shares() {
  // Fair shares are carved out of the live, accepting node set only: a
  // drained or crashed node's capacity is not promisable.
  std::size_t capacity = 0;
  for (std::size_t n = 0; n < cluster_.size(); ++n) {
    const auto id = static_cast<net::NodeId>(n);
    if (!node_placeable(id)) continue;
    capacity += node_capacity_bytes(id);
  }
  shares_ = weighted_max_min_shares(capacity, tenant_bytes_,
                                    options_.tenant_weights);
  for (std::uint32_t t = 0; t < options_.tenants; ++t) {
    windows_[t].share_bytes = shares_[t];
  }
}

void MeshingService::repartition_budgets() {
  for (std::size_t n = 0; n < cluster_.size(); ++n) {
    const auto id = static_cast<net::NodeId>(n);
    if (!node_live(id)) continue;  // a down node's budget is moot
    auto& rt = cluster_.node(id);
    const std::size_t physical = rt.options().ooc.memory_budget_bytes;
    auto working = static_cast<std::size_t>(
        options_.budget_headroom * static_cast<double>(committed_[n]));
    working = std::clamp(working,
                         std::min(options_.min_node_budget_bytes, physical),
                         physical);
    rt.set_memory_budget(working);
  }
  for (std::uint32_t t = 0; t < options_.tenants; ++t) {
    m_tenant_bytes_[t]->set(static_cast<double>(tenant_bytes_[t]));
  }
}

bool MeshingService::tick() {
  ++tick_;
  reclaim_dead_placements();
  admit_from_queues();
  post_phases();
  cluster_.run();
  // Membership events inside the run may have killed a home node or
  // drained objects off one; repair placements (and pins) BEFORE
  // finish_phases unlocks and destroys through stale homes.
  reclaim_dead_placements();
  finish_phases();
  maybe_preempt();
  admit_rotor_ = (admit_rotor_ + 1) % options_.tenants;
  return !drained();
}

void MeshingService::reclaim_dead_placements() {
  if (membership_ == nullptr || running_.empty()) return;
  bool changed = false;
  for (std::size_t j = 0; j < running_.size();) {
    RunningJob& rj = running_[j];
    bool moved = false;
    for (std::size_t i = 0; i < rj.objects.size() && !moved; ++i) {
      moved = !node_live(rj.homes[i]) ||
              !cluster_.node(rj.homes[i]).hosts(rj.objects[i]);
    }
    if (!moved) {
      ++j;
      continue;
    }
    // A home died, or a drain moved an object off a home that is still
    // draining. The crash-rebuild path (MembershipManager::do_kill) may
    // have reinstalled a dead home's objects on survivors — find each
    // one's current host among the live nodes.
    std::vector<net::NodeId> fresh(rj.objects.size(), 0);
    bool all_found = true;
    for (std::size_t i = 0; i < rj.objects.size() && all_found; ++i) {
      bool found = false;
      for (std::size_t n = 0; n < cluster_.size() && !found; ++n) {
        const auto id = static_cast<net::NodeId>(n);
        if (!node_live(id)) continue;
        if (cluster_.node(id).hosts(rj.objects[i])) {
          fresh[i] = id;
          found = true;
        }
      }
      all_found = found;
    }
    if (all_found) {
      // Rebind: the job keeps its progress; only the committed slices move
      // from the old home's ledger row to the current host's. A drain
      // cannot move a pinned object, so a pinned job's object moved only
      // as a crash-rebuilt copy, which carries no lock: pin it again on its
      // new home, since retirement unlocks every object once.
      for (std::size_t i = 0; i < rj.objects.size(); ++i) {
        const net::NodeId old_home = rj.homes[i];
        committed_[old_home] -= std::min(committed_[old_home], rj.slice_bytes);
        committed_[fresh[i]] += rj.slice_bytes;
        if (rj.pinned && fresh[i] != old_home) {
          cluster_.node(fresh[i]).lock_in_core(rj.objects[i]);
        }
      }
      rj.homes = fresh;
      ++rebound_jobs_;
      changed = true;
      ++j;
      continue;
    }
    // Some object's state went down with the node for good: release the
    // job's budget, destroy the surviving copies, and requeue it from
    // scratch at its tenant's head — never hang on a dead placement.
    for (std::size_t i = 0; i < rj.objects.size(); ++i) {
      for (std::size_t n = 0; n < cluster_.size(); ++n) {
        const auto id = static_cast<net::NodeId>(n);
        if (!node_live(id)) continue;
        if (cluster_.node(id).hosts(rj.objects[i])) {
          cluster_.node(id).destroy(rj.objects[i]);
          break;
        }
      }
      committed_[rj.homes[i]] -=
          std::min(committed_[rj.homes[i]], rj.slice_bytes);
    }
    const auto t = rj.spec.tenant;
    tenant_bytes_[t] -= std::min(tenant_bytes_[t], rj.spec.working_set_bytes);
    windows_[t].admitted_bytes -=
        std::min(windows_[t].admitted_bytes, rj.spec.working_set_bytes);
    QueuedJob qj;
    qj.spec = rj.spec;
    qj.enqueue_tick = tick_;
    qj.latency_recorded = true;  // latency counted the first admission
    qj.phases_done = 0;          // state lost: the job restarts
    queues_[t].push_front(std::move(qj));
    ++requeued_dead_jobs_;
    changed = true;
    running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(j));
  }
  if (changed) {
    recompute_shares();
    repartition_budgets();
  }
}

bool MeshingService::drained() const {
  return running_.empty() && queued_jobs() == 0;
}

std::size_t MeshingService::queued_jobs() const {
  std::size_t total = 0;
  for (const auto& q : queues_) total += q.size();
  return total;
}

void MeshingService::run_open_loop(std::vector<jobsim::ServiceJob> jobs) {
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const auto& a, const auto& b) {
                     return a.arrival_tick < b.arrival_tick;
                   });
  std::uint64_t cap = options_.max_ticks;
  if (cap == 0) {
    std::uint64_t total_phases = 0, last_arrival = 0;
    for (const auto& j : jobs) {
      total_phases += j.phases;
      last_arrival = std::max(last_arrival, j.arrival_tick);
    }
    cap = tick_ + last_arrival + 16 * (total_phases + 8) + 64;
  }
  std::size_t next = 0;
  while (true) {
    while (next < jobs.size() && jobs[next].arrival_tick <= tick_) {
      submit(jobs[next++]);
    }
    if (next >= jobs.size() && drained()) break;
    if (tick_ >= cap) {
      stalled_ = true;
      break;
    }
    tick();
  }
}

std::uint64_t MeshingService::job_digest(std::uint64_t job_id) const {
  const auto it = job_digests_.find(job_id);
  return it == job_digests_.end() ? 0 : it->second;
}

std::vector<chaos::TenantWindow> MeshingService::tenant_windows() const {
  std::vector<chaos::TenantWindow> out = windows_;
  for (std::uint32_t t = 0; t < options_.tenants; ++t) {
    out[t].phases_executed =
        tenant_hits_[t].load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace mrts::service
