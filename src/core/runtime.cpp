#include "core/runtime.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "storage/sealed_blob.hpp"
#include "util/format.hpp"
#include "util/log.hpp"

namespace mrts::core {

// Spill and migration blobs carry their own CRC (storage::seal_blob) so
// corruption introduced anywhere between serialization and deserialization
// (including below a CRC-checking backend) is detected at reload. Each blob
// is checksummed once per hop: the control thread seals it at spill; the
// I/O thread verifies a reload's seal in start_load's callback, so the
// control thread only compares the trailer with Entry::blob_crc and
// deserializes the verified payload. Recovery rungs (the synchronous
// re-load, the checkpoint copy, crash export) verify in full with
// blob_matches. Storage seal failures are Status-handled by the recovery
// ladder; only the wire paths (migration install), where a bad seal means a
// broken transport rather than a sick disk, still treat it as fatal.
using storage::seal_blob;
using storage::sealed_blob_valid;
using storage::sealed_crc;
using storage::unseal_blob;
using storage::verified_payload;
using storage::write_sealed;

Runtime::Runtime(NodeId node, net::Endpoint& endpoint,
                 const ObjectTypeRegistry& registry,
                 std::unique_ptr<storage::StorageBackend> spill_backend,
                 RuntimeOptions options)
    : node_(node),
      endpoint_(endpoint),
      registry_(registry),
      options_(options),
      ooc_hits_(&obs::MetricsRegistry::global().counter("ooc.hits")),
      ooc_misses_(&obs::MetricsRegistry::global().counter("ooc.misses")),
      ooc_evictions_(&obs::MetricsRegistry::global().counter("ooc.evictions")),
      ooc_elisions_(&obs::MetricsRegistry::global().counter("ooc.elisions")),
      ooc_(options.ooc),
      store_(std::move(spill_backend), &counters_.disk_time,
             storage::ObjectStoreOptions{
                 .retry = options.storage_retry,
                 .synchronous = options.synchronous_storage,
                 .trace_track = node}),
      pool_(tasking::make_pool(options.pool_backend, options.pool_workers)) {
  endpoint_.set_comm_accumulator(&counters_.comm_time);
  obs::MetricsRegistry::global()
      .gauge(util::format("ooc.budget_bytes.node{}", node))
      .set(static_cast<double>(options.ooc.memory_budget_bytes));
  register_am_handlers();
}

Runtime::~Runtime() { store_.drain(); }

void Runtime::register_am_handlers() {
  am_deliver_id_ = endpoint_.register_handler(
      [this](NodeId src, util::ByteReader& in) { am_deliver(src, in); });
  am_location_update_id_ = endpoint_.register_handler(
      [this](NodeId src, util::ByteReader& in) { am_location_update(src, in); });
  am_install_id_ = endpoint_.register_handler(
      [this](NodeId src, util::ByteReader& in) { am_install(src, in); });
  am_migrate_request_id_ = endpoint_.register_handler(
      [this](NodeId src, util::ByteReader& in) { am_migrate_request(src, in); });
  am_multicast_id_ = endpoint_.register_handler(
      [this](NodeId src, util::ByteReader& in) { am_multicast(src, in); });
  // Fault plans address channels by the named constants; the registration
  // order above is part of the wire contract.
  assert(am_deliver_id_ == kAmDeliver);
  assert(am_location_update_id_ == kAmLocationUpdate);
  assert(am_install_id_ == kAmInstall);
  assert(am_migrate_request_id_ == kAmMigrateRequest);
  assert(am_multicast_id_ == kAmMulticast);
  if (options_.reliable_net.enabled) {
    reliable_ = std::make_unique<net::ReliableLink>(
        endpoint_, options_.reliable_net,
        [this](NodeId src, net::AmHandlerId channel, util::ByteReader& in) {
          dispatch_reliable(src, channel, in);
        });
    assert(reliable_->data_handler_id() == kAmReliableData);
    assert(reliable_->ack_handler_id() == kAmReliableAck);
    // Transport escalation feeds the ledger (and through it HealthMonitor):
    // a peer that ate suspect_after retransmits of one frame is recorded as
    // a network failure, resolution kRetried — the link never gives up, it
    // just stops being silent about the spin.
    reliable_->set_suspect_callback(
        [this](NodeId peer, std::uint64_t seq, int retransmits) {
          ledger_.add(FailureRecord{
              .object = MobilePtr{},
              .node = node_,
              .op = FailureOp::kNetwork,
              .resolution = FailureResolution::kRetried,
              .cause = util::StatusCode::kUnavailable,
              .detail = util::format(
                  "peer {} unresponsive: seq {} retransmitted {} times", peer,
                  seq, retransmits),
          });
        });
  }
}

void Runtime::net_send(NodeId dst, net::AmHandlerId channel,
                       std::vector<std::byte> payload) {
  if (reliable_ != nullptr) {
    reliable_->send(dst, channel, std::move(payload));
    return;
  }
  endpoint_.send(dst, channel, std::move(payload));
}

void Runtime::dispatch_reliable(NodeId src, net::AmHandlerId channel,
                                util::ByteReader& in) {
  switch (channel) {
    case kAmDeliver: am_deliver(src, in); return;
    case kAmLocationUpdate: am_location_update(src, in); return;
    case kAmInstall: am_install(src, in); return;
    case kAmMigrateRequest: am_migrate_request(src, in); return;
    case kAmMulticast: am_multicast(src, in); return;
    default:
      assert(false && "unknown inner channel in reliable frame");
  }
}

// --------------------------------------------------------------------------
// Directory access

Runtime::Entry& Runtime::entry_of(MobilePtr ptr) {
  auto it = directory_.find(ptr);
  if (it == directory_.end()) {
    throw std::logic_error("mrts: " + to_string(ptr) + " unknown on node " +
                           std::to_string(node_));
  }
  return it->second;
}

const Runtime::Entry* Runtime::find_entry(MobilePtr ptr) const {
  auto it = directory_.find(ptr);
  return it == directory_.end() ? nullptr : &it->second;
}

Runtime::Entry* Runtime::find_entry(MobilePtr ptr) {
  auto it = directory_.find(ptr);
  return it == directory_.end() ? nullptr : &it->second;
}

std::size_t Runtime::local_objects() const {
  std::size_t n = 0;
  for (const auto& [ptr, e] : directory_) {
    if (e.state != Residency::kRemote) ++n;
  }
  return n;
}

// --------------------------------------------------------------------------
// Residency changes and object images

namespace {

// Images on the wire and steal-rollback images never touched a disk: a bad
// seal there is a broken transport or claim path, not a recoverable storage
// fault, so it fails fast.
std::span<const std::byte> intact_payload(std::span<const std::byte> blob,
                                          MobilePtr ptr) {
  auto payload = unseal_blob(blob);
  if (!payload.is_ok()) {
    throw std::runtime_error("mrts: object image for " + to_string(ptr) +
                             " rejected: " + payload.status().to_string());
  }
  return payload.value();
}

}  // namespace

void Runtime::install(MobilePtr ptr, Entry& e,
                      std::unique_ptr<MobileObject> obj,
                      std::size_t footprint) {
  e.obj = std::move(obj);
  e.state = Residency::kInCore;
  e.footprint = footprint;
  e.load_wanted = false;  // whoever asked for it in core has it now
  ooc_.on_install(ptr.id, footprint);
  e.obj->on_register(*this, ptr);
}

template <typename Capture>
void Runtime::leave_core(MobilePtr ptr, Entry& e, Capture&& capture) {
  e.obj->on_unregister(*this);
  capture();
  e.obj.reset();
  ooc_.on_remove(ptr.id);
  e.in_ready_list = false;  // stale ready entries skip on state check
}

void Runtime::install_image(ObjectImage& img,
                            std::unique_ptr<MobileObject> obj) {
  const std::size_t fp = obj->footprint_bytes();
  make_room(fp);
  auto [it, inserted] = directory_.try_emplace(img.ptr, Entry{});
  Entry& e = it->second;
  assert(e.state == Residency::kRemote || inserted);
  e.type = img.type;
  e.epoch = img.epoch;
  e.priority = img.priority;
  e.queue = std::move(img.queue);
  e.load_queued = false;
  // Blob identity never survives a move (a migration's sender erased its
  // copy; a restored object has none yet).
  forget_blob(img.ptr, e, /*erase_stored=*/false);
  install(img.ptr, e, std::move(obj), fp);
  queued_messages_.fetch_add(e.queue.size(), std::memory_order_acq_rel);
  bump_activity();
  if (!e.queue.empty()) push_ready(e, img.ptr);
}

void Runtime::forget_blob(MobilePtr ptr, Entry& e, bool erase_stored) {
  if (erase_stored) store_.erase(ptr.id);
  ooc_.on_spill_erased(ptr.id);
  e.blob_bytes = 0;
  e.blob_crc = 0;
  e.stored_gen = 0;
}

std::span<const std::byte> Runtime::write_image(
    util::ByteWriter& w, MobilePtr ptr, const Entry& e, std::uint64_t epoch,
    std::span<const std::byte> sealed) {
  w.write(ptr.id);
  w.write(e.type);
  w.write(epoch);
  w.write(static_cast<std::int32_t>(e.priority));
  w.write<std::uint64_t>(e.queue.size());
  for (const auto& msg : e.queue) {
    w.write(msg.handler);
    w.write(msg.src);
    w.write_vector(msg.payload);
  }
  const std::size_t blob_at = w.size() + sizeof(std::uint64_t);
  if (!sealed.empty()) {
    w.write<std::uint64_t>(sealed.size());
    w.write_bytes(sealed);
  } else {
    assert(e.obj != nullptr);
    obs::ChargedSpan span(obs::Cat::kComp, "migrate.serialize",
                          static_cast<std::uint16_t>(node_),
                          &counters_.comp_time);
    // Seal-in-place: the object serializes at its final offset in the image
    // and the CRC trailer is computed over the written span — the blob is
    // never staged in a separate vector.
    write_sealed(w, [&](util::ByteWriter& body) { e.obj->serialize(body); });
  }
  return w.bytes().subspan(blob_at);
}

Runtime::ObjectImage Runtime::read_image(util::ByteReader& in) {
  ObjectImage img;
  img.ptr = MobilePtr{in.read<std::uint64_t>()};
  img.type = in.read<TypeId>();
  img.epoch = in.read<std::uint64_t>();
  img.priority = in.read<std::int32_t>();
  const auto queue_len = in.read<std::uint64_t>();
  for (std::uint64_t i = 0; i < queue_len; ++i) {
    QueuedMessage msg;
    msg.handler = in.read<HandlerId>();
    msg.src = in.read<NodeId>();
    msg.payload = in.read_vector<std::byte>();
    img.queue.push_back(std::move(msg));
  }
  img.blob = in.read_byte_span();
  return img;
}

std::unique_ptr<MobileObject> Runtime::revive(
    TypeId type, std::span<const std::byte> payload, const char* span_name) {
  auto obj = registry_.create(type);
  obs::ChargedSpan span(obs::Cat::kComp, span_name,
                        static_cast<std::uint16_t>(node_),
                        &counters_.comp_time);
  util::ByteReader in(payload);
  obj->deserialize(in);
  return obj;
}

// --------------------------------------------------------------------------
// Object lifetime

MobilePtr Runtime::adopt(TypeId type, std::unique_ptr<MobileObject> obj) {
  assert(obj != nullptr);
  const MobilePtr ptr = MobilePtr::make(node_, next_seq_++);
  const std::size_t fp = obj->footprint_bytes();
  make_room(fp);
  auto [it, inserted] = directory_.emplace(ptr, Entry{});
  assert(inserted);
  it->second.type = type;
  it->second.epoch = 1;
  install(ptr, it->second, std::move(obj), fp);
  counters_.objects_created.fetch_add(1, std::memory_order_relaxed);
  bump_activity();
  return ptr;
}

void Runtime::destroy(MobilePtr ptr) {
  Entry& e = entry_of(ptr);
  if (e.state == Residency::kRemote) {
    throw std::logic_error("mrts: destroy() on a remote object");
  }
  if (e.running) {
    throw std::logic_error("mrts: destroy() on an object running a handler");
  }
  if (e.stolen) {
    throw std::logic_error(
        "mrts: destroy() during a steal speculation window");
  }
  if (e.state == Residency::kInCore) leave_core(ptr, e, [] {});
  if (e.state == Residency::kOnDisk || e.blob_bytes > 0) {
    // kNotFound is ignored for in-flight states.
    forget_blob(ptr, e, /*erase_stored=*/true);
  }
  if (options_.recovery.checkpoint_store) {
    options_.recovery.checkpoint_store->erase(ptr.id);  // drop stale copy
  }
  sub_queued(e.queue.size());
  directory_.erase(ptr);
  bump_activity();
}

// --------------------------------------------------------------------------
// Messaging

void Runtime::send(MobilePtr dst, HandlerId handler,
                   std::vector<std::byte> payload) {
  Entry* e = find_entry(dst);
  if (e == nullptr) {
    if (dst.home_node() == node_) {
      MRTS_LOG_WARN("node {}: dropping message to destroyed {}", node_,
                    to_string(dst));
      return;
    }
    auto [it, ignored] = directory_.emplace(dst, Entry{});
    it->second.state = Residency::kRemote;
    it->second.last_known = dst.home_node();
    e = &it->second;
  }
  if (e->state == Residency::kRemote) {
    counters_.messages_sent_remote.fetch_add(1, std::memory_order_relaxed);
    route_remote(dst, handler, node_, {node_}, std::move(payload));
    return;
  }
  counters_.messages_sent_local.fetch_add(1, std::memory_order_relaxed);
  enqueue_local(*e, dst,
                QueuedMessage{handler, node_, std::move(payload)});
}

void Runtime::route_remote(MobilePtr dst, HandlerId handler, NodeId origin,
                           std::vector<NodeId> route,
                           std::vector<std::byte> payload) {
  Entry* e = find_entry(dst);
  const NodeId next = reroute_if_departed(
      (e != nullptr && e->state == Residency::kRemote) ? e->last_known
                                                       : dst.home_node(),
      dst);
  net_send_with(next, am_deliver_id_, payload.size() + 64,
                [&](util::ByteWriter& w) {
                  w.write(dst.id);
                  w.write(handler);
                  w.write(origin);
                  w.write_vector(route);
                  w.write_vector(payload);
                });
}

void Runtime::am_deliver(NodeId /*src*/, util::ByteReader& in) {
  const MobilePtr dst{in.read<std::uint64_t>()};
  const auto handler = in.read<HandlerId>();
  const auto origin = in.read<NodeId>();
  auto route = in.read_vector<NodeId>();
  auto payload = in.read_vector<std::byte>();

  Entry* e = find_entry(dst);
  if (e == nullptr || e->state == Residency::kRemote) {
    if (e == nullptr && dst.home_node() == node_) {
      MRTS_LOG_WARN("node {}: dropping routed message to destroyed {}", node_,
                    to_string(dst));
      return;
    }
    counters_.messages_forwarded.fetch_add(1, std::memory_order_relaxed);
    route.push_back(node_);
    route_remote(dst, handler, origin, std::move(route), std::move(payload));
    return;
  }
  // Delivered. Lazy directory maintenance: everyone who relayed (or sent)
  // this message using a stale location learns the current one.
  if (options_.lazy_location_updates && route.size() > 1) {
    for (NodeId n : route) {
      // Down peers never poll: an update frame would park in their inbox
      // (crash) or rot forever (departed). The membership handoff seeds
      // them with fresher knowledge when they matter again.
      if (n == node_ || !peer_up(n)) continue;
      net_send_with(n, am_location_update_id_, 24, [&](util::ByteWriter& w) {
        w.write(dst.id);
        w.write(node_);
        w.write<std::uint64_t>(e->epoch);
      });
      counters_.location_updates.fetch_add(1, std::memory_order_relaxed);
    }
  }
  QueuedMessage msg{handler, origin, std::move(payload)};
  msg.hops = static_cast<std::uint32_t>(route.size() - 1);
  enqueue_local(*e, dst, std::move(msg));
}

void Runtime::am_location_update(NodeId /*src*/, util::ByteReader& in) {
  const MobilePtr ptr{in.read<std::uint64_t>()};
  const auto where = in.read<NodeId>();
  const auto epoch = in.read<std::uint64_t>();
  Entry* e = find_entry(ptr);
  if (e == nullptr) {
    auto [it, ignored] = directory_.emplace(ptr, Entry{});
    it->second.state = Residency::kRemote;
    it->second.last_known = where;
    it->second.epoch = epoch;
    return;
  }
  // Only strictly fresher knowledge may move the pointer. A delayed update
  // from an older installation must not regress the directory: applying it
  // can form a forwarding cycle between two non-hosts (observed as a message
  // ping-ponging forever under the chaos harness's delay fault).
  if (e->state == Residency::kRemote && epoch > e->epoch) {
    e->last_known = where;
    e->epoch = epoch;
  }
}

void Runtime::enqueue_local(Entry& e, MobilePtr ptr, QueuedMessage msg) {
  if (e.poisoned) {
    // Quarantined object: its state is lost, messages to it are dropped and
    // counted (the application sees kPoisoned via object_health()).
    counters_.poisoned_messages_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (e.stolen) {
    // Speculation window: the claim-time image of this object is pending a
    // steal decision. The arrival is a conflicting mutation — park it on the
    // (detached-from) queue and flag the conflict; the decision step rolls
    // the object back and re-splices the claimed messages ahead of this one.
    e.steal_conflict = true;
    obs::TraceRecorder& tr = obs::TraceRecorder::global();
    if (tr.enabled()) msg.enq_ts = tr.now();
    e.queue.push_back(std::move(msg));
    queued_messages_.fetch_add(1, std::memory_order_acq_rel);
    bump_activity();
    return;
  }
  if (e.state == Residency::kInCore) {
    ooc_hits_->inc();
  } else {
    ooc_misses_->inc();
  }
  obs::TraceRecorder& tr = obs::TraceRecorder::global();
  if (tr.enabled()) msg.enq_ts = tr.now();
  e.queue.push_back(std::move(msg));
  queued_messages_.fetch_add(1, std::memory_order_acq_rel);
  bump_activity();
  if (e.state == Residency::kInCore) {
    ooc_.on_access(ptr.id);
    push_ready(e, ptr);
  } else {
    // kLoading / kStoring: the completion path re-examines the queue.
    want_load(ptr, e);
  }
}

bool Runtime::want_load(MobilePtr ptr, Entry& e) {
  if (e.state != Residency::kOnDisk || e.load_queued ||
      (e.queue.empty() && !e.load_wanted)) {
    return false;
  }
  e.load_queued = true;
  load_queue_.push_back(ptr);
  return true;
}

void Runtime::push_ready(Entry& e, MobilePtr ptr) {
  if (!e.in_ready_list) {
    e.in_ready_list = true;
    ready_.push_back(ptr);
  }
}

bool Runtime::try_deliver_inline(MobilePtr dst, HandlerId handler,
                                 std::span<const std::byte> payload) {
  Entry* e = find_entry(dst);
  if (e == nullptr || e->state != Residency::kInCore || e->running) {
    return false;
  }
  counters_.inline_deliveries.fetch_add(1, std::memory_order_relaxed);
  run_handler(dst, *e, handler, node_, payload, "handler.inline");
  after_handler_accounting(dst, *e);
  return true;
}

// --------------------------------------------------------------------------
// Out-of-core control

void Runtime::lock_in_core(MobilePtr ptr) {
  Entry& e = entry_of(ptr);
  if (e.state == Residency::kRemote) {
    throw std::logic_error("mrts: lock_in_core() on a remote object");
  }
  if (e.stolen) e.steal_conflict = true;  // conflicting mutation: claim aborts
  ++e.lock_count;
  if (e.poisoned) return;  // nothing loadable; health says kPoisoned
  if (e.state == Residency::kOnDisk || e.state == Residency::kStoring) {
    e.load_wanted = true;
    want_load(ptr, e);
    bump_activity();
  }
}

void Runtime::unlock(MobilePtr ptr) {
  Entry& e = entry_of(ptr);
  if (e.lock_count <= 0) {
    // A negative count would pin the object for good: evictable needs 0.
    throw std::logic_error("mrts: unlock() on " + to_string(ptr) +
                           ", which is not locked on node " +
                           std::to_string(node_));
  }
  --e.lock_count;
}

void Runtime::set_priority(MobilePtr ptr, int priority) {
  Entry& e = entry_of(ptr);
  e.priority = std::clamp(priority, kMinPriority, kMaxPriority);
}

void Runtime::prefetch(MobilePtr ptr) {
  Entry* e = find_entry(ptr);
  if (e == nullptr || e->state == Residency::kRemote || e->poisoned) return;
  if (e->state == Residency::kOnDisk || e->state == Residency::kStoring) {
    e->load_wanted = true;
    want_load(ptr, *e);
    bump_activity();
  }
}

void Runtime::refresh_footprint(MobilePtr ptr) {
  Entry* e = find_entry(ptr);
  if (e == nullptr || e->state != Residency::kInCore) return;
  // Callers invoke this after mutating the object outside a handler (e.g.
  // through peek()): treat it as an explicit dirty signal even when the
  // footprint happens to be unchanged.
  e->obj->mark_dirty();
  after_handler_accounting(ptr, *e);
}

void Runtime::set_memory_budget(std::size_t bytes) {
  ooc_.set_memory_budget(bytes);
  // A shrink must act now, not at the next allocation: relieve hard
  // pressure synchronously, then let background (soft) eviction run ahead
  // within the write-behind budget. Anything still above the soft threshold
  // afterwards drains through the normal progress_once() path.
  make_room(0);
  while (ooc_.soft_pressure() && write_behind_has_budget() &&
         spill_one_victim(/*allow_relaxed=*/false)) {
  }
}

bool Runtime::is_local(MobilePtr ptr) const {
  const Entry* e = find_entry(ptr);
  return e != nullptr && e->state != Residency::kRemote;
}

bool Runtime::is_in_core(MobilePtr ptr) const {
  const Entry* e = find_entry(ptr);
  return e != nullptr && e->state == Residency::kInCore;
}

MobileObject* Runtime::peek(MobilePtr ptr) {
  Entry* e = find_entry(ptr);
  return (e != nullptr && e->state == Residency::kInCore) ? e->obj.get()
                                                          : nullptr;
}

// --------------------------------------------------------------------------
// Migration

void Runtime::migrate(MobilePtr ptr, NodeId dst) {
  Entry& e = entry_of(ptr);
  if (e.state == Residency::kRemote) {
    throw std::logic_error("mrts: migrate() on a remote object");
  }
  if (dst == node_) return;
  if (!peer_accepting(dst)) {
    // Draining/Down targets refuse new placements. Refused, recorded, done —
    // never a hang: the object simply stays put.
    refuse_migration(ptr, dst);
    return;
  }
  if (e.stolen) {
    // Conflicting mutation during a speculation window: flag the conflict
    // (the claim will abort) and keep the intent pending until then.
    e.steal_conflict = true;
  } else if (e.state == Residency::kInCore && !e.running &&
             e.lock_count == 0 && e.collect_for == 0) {
    do_migrate(ptr, e, dst);
    return;
  }
  if (e.state == Residency::kOnDisk || e.state == Residency::kStoring) {
    e.load_wanted = true;
    want_load(ptr, e);
  }
  // Coalesce: a repeated migrate() while one is pending just retargets it
  // (two pins for one object could never both see lock_count == 1 and
  // would deadlock).
  for (auto& [pending_ptr, pending_dst] : pending_migrations_) {
    if (pending_ptr == ptr) {
      pending_dst = dst;
      return;
    }
  }
  // Pin the object while the migration is pending: without this, memory
  // pressure can evict it the instant it reloads (priority-based victim
  // selection does not know about the migration) and the load/evict cycle
  // livelocks.
  ++e.lock_count;
  pending_migrations_.emplace_back(ptr, dst);
  bump_activity();
}

void Runtime::do_migrate(MobilePtr ptr, Entry& e, NodeId dst) {
  assert(e.state == Residency::kInCore && !e.running && e.lock_count == 0);
  // The image is serialized synchronously into the outgoing frame (the
  // reliable link's open batch, or the raw wire vector) before the object
  // is dropped.
  leave_core(ptr, e, [&] {
    net_send_with(dst, am_install_id_, e.footprint + 256,
                  [&](util::ByteWriter& w) {
                    write_image(w, ptr, e, e.epoch + 1);
                  });
  });
  // A stale spill copy must not outlive the move.
  if (e.blob_bytes > 0) forget_blob(ptr, e, /*erase_stored=*/true);
  e.state = Residency::kRemote;
  e.last_known = dst;
  e.epoch += 1;  // matches the epoch written into the install message
  sub_queued(e.queue.size());
  e.queue.clear();
  counters_.migrations_out.fetch_add(1, std::memory_order_relaxed);
  obs::TraceRecorder::global().instant(obs::Cat::kOther, "migrate.out",
                                       static_cast<std::uint16_t>(node_), dst);
}

void Runtime::am_install(NodeId src, util::ByteReader& in) {
  ObjectImage img = read_image(in);
  install_image(img, revive(img.type, intact_payload(img.blob, img.ptr),
                            "migrate.deserialize"));
  counters_.migrations_in.fetch_add(1, std::memory_order_relaxed);
  obs::TraceRecorder::global().instant(obs::Cat::kOther, "migrate.in",
                                       static_cast<std::uint16_t>(node_), src);
}

void Runtime::am_migrate_request(NodeId /*src*/, util::ByteReader& in) {
  const MobilePtr ptr{in.read<std::uint64_t>()};
  const auto requester = in.read<NodeId>();
  Entry* e = find_entry(ptr);
  if (e == nullptr) {
    if (ptr.home_node() == node_) {
      MRTS_LOG_WARN("node {}: migrate request for destroyed {}", node_,
                    to_string(ptr));
      return;
    }
    // Chase via the home node.
    net_send_with(reroute_if_departed(ptr.home_node(), ptr),
                  am_migrate_request_id_, 16, [&](util::ByteWriter& w) {
                    w.write(ptr.id);
                    w.write(requester);
                  });
    return;
  }
  if (e->state == Residency::kRemote) {
    net_send_with(reroute_if_departed(e->last_known, ptr),
                  am_migrate_request_id_, 16, [&](util::ByteWriter& w) {
                    w.write(ptr.id);
                    w.write(requester);
                  });
    return;
  }
  if (requester == node_) return;  // it came home in the meantime
  migrate(ptr, requester);
}

bool Runtime::advance_pending_migrations() {
  if (pending_migrations_.empty()) return false;
  bool did = false;
  auto pending = std::move(pending_migrations_);
  pending_migrations_.clear();
  for (auto& [ptr, dst] : pending) {
    Entry* e = find_entry(ptr);
    if (e == nullptr) continue;  // destroyed while pending
    if (e->stolen) {
      // Frozen by a steal claim; the conflict flag is already set (migrate()
      // set it) so the claim will abort — retry after the decision.
      pending_migrations_.emplace_back(ptr, dst);
      continue;
    }
    if (!peer_accepting(dst)) {
      // The target left (or started draining) while the migration was
      // pending: refuse now instead of retrying forever.
      if (e->lock_count > 0) --e->lock_count;  // release the pending pin
      refuse_migration(ptr, dst);
      did = true;
      continue;
    }
    if (e->state == Residency::kRemote) {
      // Should not normally happen (the pending pin prevents a concurrent
      // move), but chase it for robustness.
      if (e->last_known != dst) {
        net_send_with(e->last_known, am_migrate_request_id_, 16,
                      [&](util::ByteWriter& w) {
                        w.write(ptr.id);
                        w.write(dst);
                      });
      }
      did = true;
      continue;
    }
    if (e->state == Residency::kInCore && !e->running && e->lock_count == 1 &&
        e->collect_for == 0) {
      --e->lock_count;  // release the pending pin; do_migrate needs 0
      do_migrate(ptr, *e, dst);
      did = true;
    } else {
      pending_migrations_.emplace_back(ptr, dst);
    }
  }
  return did;
}

bool Runtime::migration_held_by_locks(MobilePtr ptr) const {
  // The pending migration holds one of the locks itself.
  const Entry* e = find_entry(ptr);
  return e != nullptr && e->state == Residency::kInCore && !e->running &&
         e->lock_count > 1 && e->collect_for == 0 && !e->stolen &&
         std::any_of(pending_migrations_.begin(), pending_migrations_.end(),
                     [&](const auto& pending) { return pending.first == ptr; });
}

// --------------------------------------------------------------------------
// Multicast mobile messages

void Runtime::send_multicast(std::vector<MobilePtr> targets,
                             std::uint32_t deliver_count, HandlerId handler,
                             std::vector<std::byte> payload) {
  if (targets.empty()) return;
  deliver_count = std::min<std::uint32_t>(
      deliver_count, static_cast<std::uint32_t>(targets.size()));
  Entry* head = find_entry(targets[0]);
  if (head != nullptr && head->state != Residency::kRemote) {
    multicasts_.push_back(MulticastOp{
        .id = next_multicast_id_++,
        .targets = std::move(targets),
        .deliver_count = deliver_count,
        .handler = handler,
        .payload = std::move(payload),
        .origin_src = node_,
        .requested = {},
        .start_ts = obs::TraceRecorder::global().now(),
    });
    bump_activity();
    return;
  }
  // Route the whole request to the owner of the first target.
  const NodeId next = reroute_if_departed(
      (head != nullptr && head->state == Residency::kRemote)
          ? head->last_known
          : targets[0].home_node(),
      targets[0]);
  net_send_with(next, am_multicast_id_, payload.size() + 32 * targets.size(),
                [&](util::ByteWriter& w) {
                  w.write<std::uint64_t>(targets.size());
                  for (MobilePtr t : targets) w.write(t.id);
                  w.write(deliver_count);
                  w.write(handler);
                  w.write(node_);
                  w.write_vector(payload);
                });
}

void Runtime::am_multicast(NodeId /*src*/, util::ByteReader& in) {
  const auto n = in.read<std::uint64_t>();
  std::vector<MobilePtr> targets;
  targets.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    targets.push_back(MobilePtr{in.read<std::uint64_t>()});
  }
  const auto deliver_count = in.read<std::uint32_t>();
  const auto handler = in.read<HandlerId>();
  const auto origin = in.read<NodeId>();
  auto payload = in.read_vector<std::byte>();

  Entry* head = targets.empty() ? nullptr : find_entry(targets[0]);
  if (head == nullptr || head->state == Residency::kRemote) {
    // Keep chasing the first target.
    const NodeId next = reroute_if_departed(
        (head != nullptr) ? head->last_known : targets[0].home_node(),
        targets[0]);
    net_send_with(next, am_multicast_id_,
                  payload.size() + 32 * targets.size(),
                  [&](util::ByteWriter& w) {
                    w.write<std::uint64_t>(targets.size());
                    for (MobilePtr t : targets) w.write(t.id);
                    w.write(deliver_count);
                    w.write(handler);
                    w.write(origin);
                    w.write_vector(payload);
                  });
    return;
  }
  multicasts_.push_back(MulticastOp{
      .id = next_multicast_id_++,
      .targets = std::move(targets),
      .deliver_count = deliver_count,
      .handler = handler,
      .payload = std::move(payload),
      .origin_src = origin,
      .requested = {},
      .start_ts = obs::TraceRecorder::global().now(),
  });
  bump_activity();
}

bool Runtime::advance_multicasts() {
  if (multicasts_.empty()) return false;
  bool did = false;
  for (std::size_t i = 0; i < multicasts_.size();) {
    MulticastOp& op = multicasts_[i];
    if (op.requested.size() != op.targets.size()) {
      op.requested.assign(op.targets.size(), false);
    }
    bool all_ready = true;
    bool dropped = false;
    for (std::size_t t = 0; t < op.targets.size(); ++t) {
      const MobilePtr ptr = op.targets[t];
      Entry* e = find_entry(ptr);
      if (e != nullptr && e->poisoned) {
        // A quarantined target can never be collected: the multicast would
        // stall termination forever. Drop the whole op, counting its
        // deliveries as dropped messages.
        counters_.poisoned_messages_dropped.fetch_add(
            op.deliver_count, std::memory_order_relaxed);
        dropped = true;
        break;
      }
      if (e != nullptr && e->stolen) {
        // Frozen by a steal claim: collecting it is a conflicting mutation.
        // Abort the claim; collection resumes once the rollback lands.
        e->steal_conflict = true;
        all_ready = false;
        continue;
      }
      if (e == nullptr || e->state == Residency::kRemote) {
        all_ready = false;
        if (!op.requested[t]) {
          op.requested[t] = true;
          const NodeId next = reroute_if_departed(
              (e != nullptr) ? e->last_known : ptr.home_node(), ptr);
          net_send_with(next, am_migrate_request_id_, 16,
                        [&](util::ByteWriter& w) {
                          w.write(ptr.id);
                          w.write(node_);
                        });
          did = true;
        }
        continue;
      }
      if (e->state == Residency::kOnDisk || e->state == Residency::kStoring) {
        all_ready = false;
        e->load_wanted = true;
        did |= want_load(ptr, *e);
        continue;
      }
      if (e->state != Residency::kInCore || e->running) {
        all_ready = false;
        continue;
      }
      if (e->collect_for == 0) {
        e->collect_for = op.id;
        did = true;
      } else if (e->collect_for != op.id) {
        all_ready = false;  // reserved by an earlier op; wait for release
      }
    }
    if (!dropped && !all_ready) {
      ++i;
      continue;
    }
    // The op is finished. It leaves the list before any handler runs:
    // handlers may post multicasts, which grow multicasts_.
    const MulticastOp done = std::move(op);
    multicasts_.erase(multicasts_.begin() + static_cast<std::ptrdiff_t>(i));
    did = true;
    if (!dropped) {
      // Every target is local, in-core, and reserved for this op: deliver.
      // Collect latency: local collection start to all-targets-ready, as
      // observed by the delivering (coordinator) node.
      obs::TraceRecorder& tr = obs::TraceRecorder::global();
      if (tr.enabled()) {
        const std::uint64_t now = tr.now();
        tr.complete(obs::Cat::kComm, "multicast.collect",
                    static_cast<std::uint16_t>(node_), done.start_ts,
                    now - std::min(done.start_ts, now), done.targets.size());
      }
      for (std::uint32_t t = 0; t < done.deliver_count; ++t) {
        Entry& e = entry_of(done.targets[t]);
        run_handler(done.targets[t], e, done.handler, done.origin_src,
                    done.payload, "handler.multicast");
        after_handler_accounting(done.targets[t], e);
      }
    }
    for (MobilePtr ptr : done.targets) {
      if (Entry* e = find_entry(ptr);
          e != nullptr && e->collect_for == done.id) {
        e->collect_for = 0;
      }
    }
  }
  return did;
}

// --------------------------------------------------------------------------
// Out-of-core mechanics

bool Runtime::evictable(const Entry& e) const {
  return e.state == Residency::kInCore && !e.running && e.lock_count == 0 &&
         e.collect_for == 0 && !e.stolen && e.queue.empty() && !e.load_wanted;
}

bool Runtime::evictable_relaxed(const Entry& e) const {
  return e.state == Residency::kInCore && !e.running && e.lock_count == 0 &&
         e.collect_for == 0 && !e.stolen;
}

bool Runtime::spill_one_victim(bool allow_relaxed) {
  auto priority_of = [this](std::uint64_t key) {
    const Entry* e = find_entry(MobilePtr{key});
    return e != nullptr ? e->priority : kMaxPriority;
  };
  auto victim = ooc_.pick_victim(
      [this](std::uint64_t key) {
        const Entry* e = find_entry(MobilePtr{key});
        return e != nullptr && evictable(*e);
      },
      priority_of);
  if (!victim && allow_relaxed) {
    victim = ooc_.pick_victim(
        [this](std::uint64_t key) {
          const Entry* e = find_entry(MobilePtr{key});
          return e != nullptr && evictable_relaxed(*e);
        },
        priority_of);
  }
  if (!victim) return false;
  const MobilePtr ptr{*victim};
  spill(ptr, entry_of(ptr));
  return true;
}

void Runtime::spill(MobilePtr ptr, Entry& e) {
  assert(evictable_relaxed(e));
  // The generation this spill captures; recorded on the entry only when the
  // store completes OK (a failed write-behind store must not leave the
  // entry claiming a CRC for bytes that never landed).
  std::uint64_t spill_gen = 0;
  bool elided = false;
  std::vector<std::byte> blob;
  leave_core(ptr, e, [&] {
    spill_gen = e.obj->dirty_generation();
    // Clean-spill elision: the blob left on the backend by the last
    // successful spill still serializes exactly this dirty generation, so
    // the eviction needs no serialize and no store — just drop the in-core
    // copy and flip straight to kOnDisk. blob_bytes/blob_crc are left
    // untouched: the recovery ladder's checkpoint rung keeps comparing
    // against the last-spill CRC exactly as before.
    elided = options_.spill_elision && e.blob_bytes > 0 &&
             e.stored_gen == spill_gen;
    if (elided) return;
    util::ByteWriter body(e.footprint + 64);
    {
      obs::ChargedSpan span(obs::Cat::kComp, "spill.serialize",
                            static_cast<std::uint16_t>(node_),
                            &counters_.comp_time);
      e.obj->serialize(body);
    }
    blob = seal_blob(std::move(body));
  });
  if (elided) {
    e.state = Residency::kOnDisk;
    counters_.spills_elided.fetch_add(1, std::memory_order_relaxed);
    counters_.bytes_spill_elided.fetch_add(e.blob_bytes,
                                           std::memory_order_relaxed);
    ooc_elisions_->inc();
    obs::TraceRecorder::global().instant(obs::Cat::kDisk, "spill.elide",
                                         static_cast<std::uint16_t>(node_),
                                         e.blob_bytes);
    // No store completion will arrive, so requeue any pending work here
    // (the relaxed-eviction escape hatch can evict queued objects).
    want_load(ptr, e);
    return;
  }
  e.state = Residency::kStoring;
  e.blob_bytes = blob.size();
  // Content identity of this spill: a reload must produce exactly these
  // bytes. Catches a stale replica serving an older (seal-valid) version.
  e.blob_crc = sealed_crc(blob);
  ooc_.on_spilled(ptr.id, blob.size());
  counters_.objects_spilled.fetch_add(1, std::memory_order_relaxed);
  counters_.bytes_spilled.fetch_add(blob.size(), std::memory_order_relaxed);
  ooc_evictions_->inc();
  obs::TraceRecorder::global().instant(obs::Cat::kDisk, "evict",
                                       static_cast<std::uint16_t>(node_),
                                       blob.size());
  ++outstanding_stores_;
  const std::size_t spill_bytes = blob.size();
  write_behind_inflight_bytes_ += spill_bytes;
  store_.store_async(
      ptr.id, std::move(blob),
      [this, ptr, spill_bytes,
       spill_gen](util::Status s, std::vector<std::byte> payload) {
        // On failure `payload` is the sealed blob handed back by the storage
        // layer — the object's only remaining copy; the control thread
        // reinstalls it in core.
        push_completion(Completion{ptr.id, /*is_load=*/false, std::move(s),
                                   std::move(payload), spill_bytes,
                                   spill_gen});
      });
}

bool Runtime::schedule_loads() {
  bool did = false;
  std::size_t attempts = load_queue_.size();
  while (attempts-- > 0 && !load_queue_.empty() &&
         outstanding_loads_ < ooc_.options().max_concurrent_loads) {
    const MobilePtr ptr = load_queue_.front();
    load_queue_.pop_front();
    Entry* e = find_entry(ptr);
    if (e == nullptr) continue;
    e->load_queued = false;
    if (e->state != Residency::kOnDisk || e->poisoned) continue;
    if (!e->queue.empty() || e->load_wanted) {
      // Make room before reading the blob back in — strict victims only:
      // evicting another object that still has queued messages here can
      // ping-pong two ready objects through the disk forever when the
      // budget holds only one of them. If no idle victim exists the load
      // proceeds over budget; the strict-first relief after each handler
      // batch drains the excess as soon as queues empty (and a workload
      // that pins more than fits "runs out of memory" exactly as the
      // paper warns, rather than deadlocking).
      make_room(e->blob_bytes, /*strict=*/true);
      start_load(*e, ptr);
      did = true;
    }
  }
  return did;
}

void Runtime::start_load(Entry& e, MobilePtr ptr) {
  assert(e.state == Residency::kOnDisk);
  e.state = Residency::kLoading;
  ++outstanding_loads_;
  store_.load_async(ptr.id, [this, ptr](
                                util::Result<std::vector<std::byte>> result) {
    // Runs on the I/O thread (inline under synchronous_storage): the seal
    // is verified here, outside the lock, so the control thread only
    // compares the trailer with the entry's blob_crc.
    Completion c{ptr.id, /*is_load=*/true, result.status(), {}};
    if (result.is_ok()) {
      c.bytes = std::move(result).value();
      c.sealed = sealed_blob_valid(c.bytes);
    }
    push_completion(std::move(c));
  });
}

void Runtime::push_completion(Completion c) {
  {
    std::lock_guard lock(completions_mutex_);
    completions_.push_back(std::move(c));
    completions_available_.fetch_add(1, std::memory_order_release);
  }
  // Wakes this node's control thread if it is waiting for work.
  endpoint_.doorbell().ring();
}

bool Runtime::drain_completions() {
  if (completions_available_.load(std::memory_order_acquire) == 0) {
    return false;
  }
  std::vector<Completion> batch;
  {
    std::lock_guard lock(completions_mutex_);
    batch = std::move(completions_);
    completions_.clear();
    completions_available_.store(0, std::memory_order_release);
  }
  for (auto& c : batch) {
    const MobilePtr ptr{c.key};
    Entry* e = find_entry(ptr);
    if (c.is_load) {
      --outstanding_loads_;
      if (e == nullptr) continue;  // destroyed mid-flight
      if (c.status.is_ok() && c.sealed && sealed_crc(c.bytes) == e->blob_crc) {
        finish_load(*e, ptr, std::move(c.bytes));
        continue;
      }
      // Hard load failure: retries exhausted, bad seal, or stale content.
      const util::Status cause =
          c.status.is_ok() ? util::Status(util::StatusCode::kCorruption,
                                          "loaded blob failed seal/content "
                                          "verification")
                           : c.status;
      recover_failed_load(ptr, *e, cause);
    } else {
      --outstanding_stores_;
      // Draining the completion frees the write-behind budget, whatever the
      // outcome (even when the entry was destroyed mid-flight).
      assert(write_behind_inflight_bytes_ >= c.spill_bytes);
      write_behind_inflight_bytes_ -= c.spill_bytes;
      if (c.status.is_ok()) {
        if (e == nullptr) continue;
        if (e->state == Residency::kStoring) {
          e->state = Residency::kOnDisk;
          // The blob landed: only now does the entry claim its generation
          // (and keep the CRC recorded at serialize time honest).
          e->stored_gen = c.spill_gen;
          want_load(ptr, *e);
        }
        continue;
      }
      if (e == nullptr) continue;  // destroyed mid-flight; nothing to save
      if (e->state == Residency::kStoring) {
        recover_failed_store(ptr, *e, c.status, std::move(c.bytes));
      }
    }
  }
  return !batch.empty();
}

bool Runtime::blob_matches(const Entry& e,
                           std::span<const std::byte> bytes) const {
  return sealed_blob_valid(bytes) && sealed_crc(bytes) == e.blob_crc;
}

void Runtime::finish_load(Entry& e, MobilePtr ptr,
                          std::vector<std::byte> bytes) {
  assert(e.state == Residency::kLoading);
  auto obj = revive(e.type, verified_payload(bytes), "load.deserialize");
  // The fresh instance is byte-for-byte what the blob serializes: align its
  // dirty generation with the blob's so a clean evict elides the re-store.
  obj->sync_generation(e.stored_gen);
  const std::size_t fp = obj->footprint_bytes();
  install(ptr, e, std::move(obj), fp);
  // With elision enabled the blob (and its recorded identity) stays on the
  // backend: if the object is evicted again unmodified, spill() skips
  // serialize+store entirely. Forced-spill mode keeps the pre-elision
  // behavior of dropping the blob on reload.
  if (!options_.spill_elision) forget_blob(ptr, e, /*erase_stored=*/true);
  counters_.objects_loaded.fetch_add(1, std::memory_order_relaxed);
  counters_.bytes_loaded.fetch_add(bytes.size(), std::memory_order_relaxed);
  if (!e.queue.empty()) push_ready(e, ptr);
  bump_activity();
  // The reload may have pushed the node over budget; relieve promptly so a
  // storm of reloads cannot pile up unbounded residency. Strict victims
  // only: the relaxed pass could evict the very object we just loaded
  // (its queue is non-empty) before its messages ever run — with a budget
  // of about one object, that livelocks the load/evict cycle.
  make_room(0, /*strict=*/true);
}

// --------------------------------------------------------------------------
// Storage-failure recovery (the self-healing ladder)

void Runtime::recover_failed_load(MobilePtr ptr, Entry& e,
                                  const util::Status& cause) {
  // Rung 1: one synchronous re-issued load (with its own retry budget). A
  // transient fault window that outlived the async attempt may be over, and
  // a replicated backend repairs itself on exactly this kind of read.
  auto again = store_.load_sync(ptr.id);
  if (again.is_ok() && blob_matches(e, again.value())) {
    counters_.loads_recovered.fetch_add(1, std::memory_order_relaxed);
    ledger_.add(FailureRecord{ptr, node_, FailureOp::kLoad,
                              FailureResolution::kRetried, cause.code(),
                              cause.message(), 0});
    obs::TraceRecorder::global().instant(obs::Cat::kDisk, "recover.reload",
                                         static_cast<std::uint16_t>(node_),
                                         ptr.id);
    finish_load(e, ptr, std::move(again).value());
    return;
  }
  // Rung 2: the per-object checkpoint copy, accepted only when its seal CRC
  // equals the spilled blob's (identical content — a stale checkpoint of an
  // object that changed since is silent corruption and must not win).
  if (options_.recovery.checkpoint_store != nullptr) {
    auto cp = options_.recovery.checkpoint_store->load(ptr.id);
    if (cp.is_ok() && blob_matches(e, cp.value())) {
      counters_.checkpoint_recoveries.fetch_add(1, std::memory_order_relaxed);
      ledger_.add(FailureRecord{ptr, node_, FailureOp::kLoad,
                                FailureResolution::kCheckpointRecovered,
                                cause.code(), cause.message(), 0});
      obs::TraceRecorder::global().instant(
          obs::Cat::kDisk, "recover.checkpoint",
          static_cast<std::uint16_t>(node_), ptr.id);
      finish_load(e, ptr, std::move(cp).value());
      return;
    }
  }
  poison_object(ptr, e, FailureOp::kLoad, cause);
}

void Runtime::recover_failed_store(MobilePtr ptr, Entry& e,
                                   const util::Status& cause,
                                   std::vector<std::byte> bytes) {
  // The storage layer hands a failed store's payload back: undo the
  // eviction and reinstall the object in core from it. Verify anyway —
  // these bytes are the object's only copy.
  if (!blob_matches(e, bytes)) {
    poison_object(ptr, e, FailureOp::kStore, cause);
    return;
  }
  auto obj = revive(e.type, verified_payload(bytes), "spill.reinstall");
  // The store never landed: the entry must not claim a blob, a CRC, or a
  // stored generation for bytes that are not on the backend.
  forget_blob(ptr, e, /*erase_stored=*/false);
  const std::size_t fp = obj->footprint_bytes();
  install(ptr, e, std::move(obj), fp);
  counters_.spills_reinstalled.fetch_add(1, std::memory_order_relaxed);
  ledger_.add(FailureRecord{ptr, node_, FailureOp::kStore,
                            FailureResolution::kReinstalled, cause.code(),
                            cause.message(), 0});
  obs::TraceRecorder::global().instant(obs::Cat::kDisk, "recover.reinstall",
                                       static_cast<std::uint16_t>(node_),
                                       ptr.id);
  if (!e.queue.empty()) push_ready(e, ptr);
  bump_activity();
  // The reinstall may exceed the budget; strict relief only — the relaxed
  // pass could evict this same queued object straight back into the sick
  // store and livelock the reinstall cycle.
  make_room(0, /*strict=*/true);
}

void Runtime::poison_object(MobilePtr ptr, Entry& e, FailureOp op,
                            const util::Status& cause) {
  const std::uint64_t dropped = e.queue.size();
  sub_queued(dropped);
  e.queue.clear();
  e.poisoned = true;
  e.state = Residency::kOnDisk;  // whatever blob remains is known-bad
  e.stored_gen = 0;              // and must never satisfy an elision check
  e.load_wanted = false;
  e.load_queued = false;
  e.in_ready_list = false;
  counters_.objects_poisoned.fetch_add(1, std::memory_order_relaxed);
  counters_.poisoned_messages_dropped.fetch_add(dropped,
                                                std::memory_order_relaxed);
  ledger_.add(FailureRecord{ptr, node_, op, FailureResolution::kPoisoned,
                            cause.code(), cause.message(), dropped});
  obs::MetricsRegistry::global().counter("runtime.objects_poisoned").inc();
  obs::TraceRecorder::global().instant(obs::Cat::kDisk, "recover.poison",
                                       static_cast<std::uint16_t>(node_),
                                       ptr.id);
  MRTS_LOG_WARN(
      "node {}: {} poisoned after unrecoverable {} failure ({}); {} queued "
      "message(s) dropped",
      node_, to_string(ptr), to_string(op), cause.to_string(), dropped);
  bump_activity();
}

ObjectHealth Runtime::object_health(MobilePtr ptr) const {
  const Entry* e = find_entry(ptr);
  return (e != nullptr && e->poisoned) ? ObjectHealth::kPoisoned
                                       : ObjectHealth::kHealthy;
}

// --------------------------------------------------------------------------
// Control loop

void Runtime::after_handler_accounting(MobilePtr ptr, Entry& e) {
  const std::size_t fp = e.obj->footprint_bytes();
  if (fp != e.footprint) {
    e.footprint = fp;
    ooc_.on_footprint_change(ptr.id, fp);
    // Safety net for handlers declared read-only that grew or shrank the
    // object anyway: a footprint change is proof of mutation.
    e.obj->mark_dirty();
  }
  make_room(0);
  sample_observability();
}

void Runtime::sample_observability() {
  obs::TraceRecorder& tr = obs::TraceRecorder::global();
  if (!tr.enabled()) return;
  const auto track = static_cast<std::uint16_t>(node_);
  tr.counter("ooc.in_core", track, ooc_.in_core_bytes());
  tr.counter("pool.queued", track, pool_->queued_tasks());
  tr.counter("pool.steals", track, pool_->steals());
}

bool Runtime::run_ready_object() {
  while (!ready_.empty()) {
    const MobilePtr ptr = ready_.front();
    ready_.pop_front();
    Entry* e = find_entry(ptr);
    if (e == nullptr || e->state != Residency::kInCore) {
      continue;  // stale: destroyed, spilled, or migrated meanwhile
    }
    if (e->queue.empty()) {
      e->in_ready_list = false;
      continue;
    }
    std::size_t budget = options_.max_messages_per_turn;
    while (budget-- > 0 && !e->queue.empty()) {
      QueuedMessage msg = std::move(e->queue.front());
      e->queue.pop_front();
      sub_queued(1);
      execute_message(ptr, *e, msg);
      e = find_entry(ptr);  // handler may destroy others; self must persist
      assert(e != nullptr);
    }
    if (!e->queue.empty()) {
      ready_.push_back(ptr);  // keep in_ready_list set
    } else {
      e->in_ready_list = false;
    }
    after_handler_accounting(ptr, *e);
    return true;
  }
  return false;
}

void Runtime::execute_message(MobilePtr ptr, Entry& e, QueuedMessage& msg) {
  obs::TraceRecorder& tr = obs::TraceRecorder::global();
  if (tr.enabled() && msg.enq_ts != 0) {
    // Enqueue-to-delivery wait as an async span; value carries the number of
    // directory forwarding hops the message took before arriving here.
    const std::uint64_t now = tr.now();
    tr.complete(obs::Cat::kOther, "queue.wait",
                static_cast<std::uint16_t>(node_), msg.enq_ts,
                now - std::min(msg.enq_ts, now), msg.hops);
  }
  run_handler(ptr, e, msg.handler, msg.src, msg.payload, "handler");
}

void Runtime::run_handler(MobilePtr ptr, Entry& e, HandlerId handler,
                          NodeId src, std::span<const std::byte> payload,
                          const char* span_name) {
  ooc_.on_access(ptr.id);
  e.running = true;
  {
    obs::ChargedSpan span(obs::Cat::kComp, span_name,
                          static_cast<std::uint16_t>(node_),
                          &counters_.comp_time);
    util::ByteReader reader(payload);
    registry_.handler(e.type, handler)(*this, *e.obj, ptr, src, reader);
  }
  e.running = false;
  counters_.messages_executed.fetch_add(1, std::memory_order_relaxed);
  if (!registry_.handler_read_only(e.type, handler)) e.obj->mark_dirty();
}

void Runtime::advise_shed(std::uint32_t count, NodeId target) {
  shed_target_.store(target, std::memory_order_release);
  shed_count_.store(count, std::memory_order_release);
}

bool Runtime::apply_shed_advice() {
  const auto count = shed_count_.exchange(0, std::memory_order_acq_rel);
  if (count == 0) return false;
  const NodeId target = shed_target_.load(std::memory_order_acquire);
  if (target == node_ || !peer_accepting(target)) return false;
  // Shed in-core objects with queued work: the queue travels with the
  // object, so the receiver picks the work up directly.
  std::uint32_t shed = 0;
  std::vector<MobilePtr> victims;
  for (const auto& [ptr, e] : directory_) {
    if (shed + victims.size() >= count) break;
    if (e.state != Residency::kInCore || e.queue.empty() || e.running ||
        e.lock_count != 0 || e.collect_for != 0 || e.stolen) {
      continue;
    }
    victims.push_back(ptr);
  }
  for (MobilePtr ptr : victims) {
    do_migrate(ptr, entry_of(ptr), target);
    ++shed;
  }
  return shed > 0;
}

bool Runtime::progress_once() {
  bool did = false;
  did |= endpoint_.poll() > 0;
  // One control-loop iteration == one virtual tick of the reliable layer;
  // overdue unacked frames are retransmitted here.
  if (reliable_ != nullptr) did |= reliable_->on_tick();
  did |= drain_completions();
  did |= apply_shed_advice();
  did |= advance_pending_migrations();
  did |= advance_multicasts();
  did |= schedule_loads();
  // Background (soft-pressure) eviction is write-behind: it stops issuing
  // new spill stores while the in-flight-bytes budget is full; the drained
  // completions above free it. Hard-pressure eviction paths are not gated —
  // when an allocation needs room now, the spill is issued immediately.
  if (ooc_.soft_pressure() && write_behind_has_budget() &&
      spill_one_victim(/*allow_relaxed=*/false)) {
    did = true;
  }
  did |= run_ready_object();
  // End-of-sweep batch flush: AMs generated anywhere in this iteration
  // coalesce per destination but never wait out a sweep boundary, so
  // aggregation costs no det-step latency on the deterministic driver.
  if (reliable_ != nullptr) did |= reliable_->flush();

  if (did) {
    idle_.store(false, std::memory_order_release);
  } else {
    // A migration held back only by application pins is not work: nothing
    // in a run releases them, so it must not keep the run going.
    const bool migrating = std::any_of(
        pending_migrations_.begin(), pending_migrations_.end(),
        [&](const auto& pending) {
          return !migration_held_by_locks(pending.first);
        });
    bool pending = !ready_.empty() || !multicasts_.empty() || migrating ||
                   !load_queue_.empty() ||
                   outstanding_loads_ > 0 || outstanding_stores_ > 0 ||
                   !endpoint_.inbox_empty() ||
                   completions_available_.load(std::memory_order_acquire) > 0;
    // Unacked frames keep this node non-idle so the termination detector
    // can never quiesce over a lost message — the retransmit that recovers
    // it is guaranteed another control-loop iteration. Parked reorder-buffer
    // frames likewise represent undispatched work.
    if (!pending && reliable_ != nullptr) {
      pending = reliable_->has_unacked() || reliable_->rx_buffered() > 0;
    }
    if (!pending) {
      for (const auto& [ptr, e] : directory_) {
        if (e.state == Residency::kRemote) continue;
        // A frozen steal ticket is pending work: the entry's queue is
        // detached into the claim frame, so without this the node could go
        // idle — and the driver quiesce — before the decision step resolves
        // the claim.
        if (!e.queue.empty() || e.load_wanted || e.stolen) {
          pending = true;
          break;
        }
      }
    }
    idle_.store(!pending, std::memory_order_release);
  }
  return did;
}

bool Runtime::is_idle() const { return idle_.load(std::memory_order_acquire); }

// --------------------------------------------------------------------------
// Checkpoint / restore

util::Status Runtime::checkpoint_to(util::ByteWriter& out) {
  store_.drain();
  for (const auto& [ptr, e] : directory_) {
    if (e.state == Residency::kLoading || e.state == Residency::kStoring) {
      return util::Status(util::StatusCode::kInvalidArgument,
                          "checkpoint_to called with I/O in flight (not a "
                          "phase boundary)");
    }
    if (e.stolen) {
      return util::Status(util::StatusCode::kInvalidArgument,
                          "checkpoint_to called with a steal speculation in "
                          "flight (not a phase boundary)");
    }
  }
  out.write(next_seq_);
  std::uint64_t count = 0;
  for (const auto& [ptr, e] : directory_) {
    // Poisoned objects have no recoverable state; they are not part of the
    // checkpointed world.
    if (e.state != Residency::kRemote && !e.poisoned) ++count;
  }
  out.write(count);
  for (auto& [ptr, e] : directory_) {
    if (e.state == Residency::kRemote || e.poisoned) continue;
    std::vector<std::byte> spilled;
    if (e.state != Residency::kInCore) {
      // Already spilled: the stored blob is sealed; copy it verbatim.
      auto loaded = store_.load_sync(ptr.id);
      if (!loaded.is_ok()) {
        return util::Status(loaded.status().code(),
                            "checkpoint could not read spilled " +
                                to_string(ptr) + ": " +
                                loaded.status().message());
      }
      spilled = std::move(loaded).value();
      if (!sealed_blob_valid(spilled)) {
        return util::Status(util::StatusCode::kCorruption,
                            "checkpoint read a corrupt spill blob for " +
                                to_string(ptr));
      }
    }
    // A restored world restarts the epoch clock.
    const auto blob = write_image(out, ptr, e, /*epoch=*/1, spilled);
    if (options_.recovery.checkpoint_store != nullptr) {
      // Side copy feeding the recovery ladder's checkpoint rung. Best
      // effort: a failed copy degrades recovery, not the checkpoint.
      if (auto s = options_.recovery.checkpoint_store->store(ptr.id, blob);
          !s.is_ok()) {
        MRTS_LOG_WARN("node {}: checkpoint side-copy of {} failed: {}", node_,
                      to_string(ptr), s.to_string());
      }
    }
  }
  return util::Status::ok();
}

util::Result<Runtime::CheckpointImage> Runtime::parse_checkpoint(
    util::ByteReader& in) const {
  auto corrupt = [](std::string what) {
    return util::Status(util::StatusCode::kCorruption, std::move(what));
  };
  CheckpointImage image;
  try {
    image.next_seq = in.read<std::uint64_t>();
    // No reserve: the count is unchecked input. Every object takes image
    // bytes, so a count larger than the image ends in an ArchiveError.
    const auto count = in.read<std::uint64_t>();
    for (std::uint64_t k = 0; k < count; ++k) {
      ObjectImage img = read_image(in);
      if (img.type >= registry_.type_count()) {
        return corrupt("restore image names unknown type of " +
                       to_string(img.ptr));
      }
      for (const QueuedMessage& msg : img.queue) {
        if (msg.handler >= registry_.handler_count(img.type)) {
          return corrupt("restore image queues an unknown handler for " +
                         to_string(img.ptr));
        }
      }
      if (const Entry* existing = find_entry(img.ptr);
          existing != nullptr && existing->state != Residency::kRemote) {
        return util::Status(util::StatusCode::kAlreadyExists,
                            "restore over an existing local object " +
                                to_string(img.ptr));
      }
      auto payload = unseal_blob(img.blob);
      if (!payload.is_ok()) {
        return corrupt("restore blob for " + to_string(img.ptr) +
                       " rejected: " + payload.status().message());
      }
      auto obj = registry_.create(img.type);
      util::ByteReader body(payload.value());
      obj->deserialize(body);
      img.blob = {};  // revived; the parsed buffer may go
      image.objects.emplace_back(std::move(img), std::move(obj));
    }
  } catch (const util::ArchiveError& err) {
    return corrupt(std::string("restore image truncated or malformed: ") +
                   err.what());
  }
  return image;
}

void Runtime::restore(CheckpointImage image) {
  next_seq_ = std::max(next_seq_, image.next_seq);
  for (auto& [img, obj] : image.objects) install_image(img, std::move(obj));
}

void Runtime::note_remote_location(MobilePtr ptr, NodeId where) {
  if (where == node_) return;
  auto [it, inserted] = directory_.try_emplace(ptr, Entry{});
  Entry& e = it->second;
  if (!inserted && e.state != Residency::kRemote) return;  // we host it
  e.state = Residency::kRemote;
  e.last_known = where;
  e.epoch = 0;  // weakest knowledge: any real location update supersedes it
}

void Runtime::note_remote_location(MobilePtr ptr, NodeId where,
                                   std::uint64_t epoch) {
  if (where == node_) return;
  auto [it, inserted] = directory_.try_emplace(ptr, Entry{});
  Entry& e = it->second;
  if (!inserted && e.state != Residency::kRemote) return;  // we host it
  if (!inserted && epoch <= e.epoch) return;  // not strictly fresher
  e.state = Residency::kRemote;
  e.last_known = where;
  e.epoch = epoch;
}

// --------------------------------------------------------------------------
// Elastic membership: routing guards, work stealing, crash export/rebuild

bool Runtime::hosts(MobilePtr ptr) const {
  const Entry* e = find_entry(ptr);
  return e != nullptr && e->state != Residency::kRemote;
}

NodeId Runtime::reroute_if_departed(NodeId next, MobilePtr dst) const {
  if (membership_ == nullptr || !membership_->node_departed(next)) return next;
  // The hop names a node that drained away and will never poll again: the
  // frame would rot in its inbox. Re-aim at the home node — the drain's
  // handoff seeded it with the post-migration location — unless home IS the
  // departed node (or us, whose own entry is the stale one): then any
  // accepting node forwards via its seeded entry.
  const NodeId home = dst.home_node();
  if (home != next && home != node_ && membership_->node_up(home)) {
    return home;
  }
  const NodeId fb = membership_->fallback_node(node_);
  return fb != node_ ? fb : next;
}

void Runtime::refuse_migration(MobilePtr ptr, NodeId dst) {
  counters_.migrations_refused.fetch_add(1, std::memory_order_relaxed);
  ledger_.add(FailureRecord{
      ptr, node_, FailureOp::kMigrate, FailureResolution::kRefused,
      util::StatusCode::kUnavailable,
      "migrate target node " + std::to_string(dst) + " is not accepting "
      "(draining or down)",
      0});
  obs::TraceRecorder::global().instant(obs::Cat::kOther, "migrate.refused",
                                       static_cast<std::uint16_t>(node_), dst);
  MRTS_LOG_WARN("node {}: refused migrate of {} to non-accepting node {}",
                node_, to_string(ptr), dst);
}

bool Runtime::steal_claim(MobilePtr ptr, std::vector<std::byte>& frame) {
  Entry* e = find_entry(ptr);
  if (e == nullptr || e->state != Residency::kInCore || e->obj == nullptr ||
      e->running || e->lock_count != 0 || e->collect_for != 0 ||
      e->poisoned || e->stolen || e->queue.empty()) {
    return false;
  }
  // The frame is simultaneously the payload a commit ships to the thief
  // (install-wire format, epoch + 1) and the checkpoint image an abort
  // restores from. The entry keeps its current epoch until the decision.
  leave_core(ptr, *e, [&] {
    util::ByteWriter w(e->footprint + 256);
    write_image(w, ptr, *e, e->epoch + 1);
    frame = w.take();
  });
  // Like a migration: no stale spill copy may outlive the (speculative)
  // move. An abort reinstalls in core with no blob identity, which only
  // costs a future elision.
  if (e->blob_bytes > 0) forget_blob(ptr, *e, /*erase_stored=*/true);
  sub_queued(e->queue.size());
  e->queue.clear();
  e->stolen = true;
  e->steal_conflict = false;
  counters_.steals_claimed.fetch_add(1, std::memory_order_relaxed);
  obs::TraceRecorder::global().instant(obs::Cat::kOther, "steal.claim",
                                       static_cast<std::uint16_t>(node_),
                                       ptr.id);
  bump_activity();
  return true;
}

bool Runtime::steal_resolve(MobilePtr ptr, NodeId thief,
                            std::vector<std::byte> frame, bool force_abort) {
  Entry* e = find_entry(ptr);
  if (e == nullptr || !e->stolen) {
    throw std::logic_error("mrts: steal_resolve() without a pending claim");
  }
  const bool conflict = force_abort || e->steal_conflict ||
                        e->lock_count > 0 || !peer_accepting(thief);
  if (!conflict) {
    e->state = Residency::kRemote;
    e->last_known = thief;
    e->epoch += 1;  // matches the epoch inside the claim frame
    e->stolen = false;
    e->steal_conflict = false;
    e->in_ready_list = false;
    counters_.steals_committed.fetch_add(1, std::memory_order_relaxed);
    counters_.migrations_out.fetch_add(1, std::memory_order_relaxed);
    obs::TraceRecorder::global().instant(obs::Cat::kOther, "steal.commit",
                                         static_cast<std::uint16_t>(node_),
                                         thief);
    net_send(thief, am_install_id_, std::move(frame));
    bump_activity();
    return true;
  }
  // Rollback: restore the object from the claim-time image and re-splice
  // the claimed messages AHEAD of anything that parked during the window,
  // preserving the pre-claim local FIFO order. The handler never ran at the
  // thief (execution only happens after a commit), so this is exactly-once.
  // The claim epoch in the image is unused: the entry kept its own.
  util::ByteReader in(frame);
  ObjectImage img = read_image(in);
  assert(img.ptr == ptr);
  auto obj = revive(img.type, intact_payload(img.blob, ptr), "steal.rollback");
  const std::size_t fp = obj->footprint_bytes();
  make_room(fp);
  e->type = img.type;
  e->priority = img.priority;
  queued_messages_.fetch_add(img.queue.size(), std::memory_order_acq_rel);
  for (auto it = img.queue.rbegin(); it != img.queue.rend(); ++it) {
    e->queue.push_front(std::move(*it));
  }
  e->stolen = false;
  e->steal_conflict = false;
  install(ptr, *e, std::move(obj), fp);
  counters_.steals_aborted.fetch_add(1, std::memory_order_relaxed);
  obs::TraceRecorder::global().instant(obs::Cat::kOther, "steal.abort",
                                       static_cast<std::uint16_t>(node_),
                                       ptr.id);
  if (!e->queue.empty()) push_ready(*e, ptr);
  bump_activity();
  return false;
}

std::size_t Runtime::stolen_entries() const {
  std::size_t n = 0;
  for (const auto& [ptr, e] : directory_) {
    if (e.stolen) ++n;
  }
  return n;
}

std::vector<Runtime::RecoveredObject> Runtime::crash_export() {
  // Settle in-flight I/O first so every entry is kInCore or kOnDisk (a
  // drained completion can trigger recovery spills, hence the loop).
  store_.drain();
  while (drain_completions()) store_.drain();
  std::vector<RecoveredObject> out;
  for (auto& [ptr, e] : directory_) {
    if (e.state == Residency::kRemote) continue;
    assert(!e.stolen && "steals must be force-resolved before crash_export");
    RecoveredObject rec;
    rec.ptr = ptr;
    rec.epoch = e.epoch + 1;
    if (e.poisoned) {
      rec.lost = true;  // was already lost before the crash
      out.push_back(std::move(rec));
      continue;
    }
    util::ByteWriter w(e.footprint + 256);
    if (e.state == Residency::kInCore && e.obj != nullptr) {
      leave_core(ptr, e, [&] { write_image(w, ptr, e, rec.epoch); });
    } else {
      // Spilled: the replica scan. The blob survives the crash on the
      // replicated spill store (and the checkpoint side-store as the second
      // rung); read it back through the same verification a reload uses.
      std::vector<std::byte> blob;
      if (auto loaded = store_.load_sync(ptr.id);
          loaded.is_ok() && blob_matches(e, loaded.value())) {
        blob = std::move(loaded).value();
      } else if (options_.recovery.checkpoint_store != nullptr) {
        if (auto cp = options_.recovery.checkpoint_store->load(ptr.id);
            cp.is_ok() && blob_matches(e, cp.value())) {
          blob = std::move(cp).value();
        }
      }
      if (blob.empty()) {
        rec.lost = true;
        out.push_back(std::move(rec));
        continue;
      }
      write_image(w, ptr, e, rec.epoch, blob);
    }
    rec.frame = w.take();
    out.push_back(std::move(rec));
  }
  // Deterministic rebuild order regardless of hash-map iteration.
  std::sort(out.begin(), out.end(),
            [](const RecoveredObject& a, const RecoveredObject& b) {
              return a.ptr.id < b.ptr.id;
            });
  return out;
}

void Runtime::crash_wipe() {
  store_.drain();
  while (drain_completions()) store_.drain();
  for (auto& [ptr, e] : directory_) {
    if (e.state == Residency::kRemote) continue;
    assert(!e.stolen && "steals must be force-resolved before crash_wipe");
    if (e.obj != nullptr) leave_core(ptr, e, [] {});  // not exported first
    if (e.state == Residency::kOnDisk || e.state == Residency::kStoring ||
        e.blob_bytes > 0) {
      forget_blob(ptr, e, /*erase_stored=*/true);
    }
    if (options_.recovery.checkpoint_store != nullptr) {
      options_.recovery.checkpoint_store->erase(ptr.id);
    }
    sub_queued(e.queue.size());
  }
  directory_.clear();
  ready_.clear();
  load_queue_.clear();
  multicasts_.clear();
  pending_migrations_.clear();
  shed_count_.store(0, std::memory_order_release);
  obs::TraceRecorder::global().instant(obs::Cat::kOther, "membership.wipe",
                                       static_cast<std::uint16_t>(node_), 0);
  // A fresh empty member has nothing runnable. The reliable link, parked
  // inbox frames, and next_seq_ deliberately survive: the link's session
  // state is modeled as living in the replicated control log, its rx dedup
  // absorbs post-rejoin retransmit duplicates, and the fabric's in-flight
  // balance tracks the parked frames until the node rejoins and polls them.
  idle_.store(true, std::memory_order_release);
}

void Runtime::install_recovered(NodeId from, std::span<const std::byte> frame) {
  util::ByteReader in(frame);
  am_install(from, in);
  counters_.objects_rebuilt.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace mrts::core
