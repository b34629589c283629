#pragma once

// Per-node MRTS runtime: control layer plus the public programming model
// (paper §II.C-§II.E). One Runtime instance exists per simulated node; its
// control loop (progress_once) delivers incoming one-sided messages, runs
// message handlers with the target object guaranteed in-core, schedules
// asynchronous loads for out-of-core objects with pending messages, and
// evicts victims under memory pressure.
//
// Threading contract: the entire public API below except the counters is
// control-thread-only — it must be called either from the thread driving
// progress_once()/Cluster::run() for this node, or from inside a message
// handler (which runs on that same thread). Tasks spawned inside a handler
// via pool() may only compute; they must not call Runtime methods.

#include <cassert>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/counters.hpp"
#include "core/failure_ledger.hpp"
#include "core/mobile_object.hpp"
#include "core/mobile_ptr.hpp"
#include "core/ooc_layer.hpp"
#include "simnet/fabric.hpp"
#include "simnet/reliable.hpp"
#include "storage/object_store.hpp"
#include "storage/retry_policy.hpp"
#include "tasking/task_pool.hpp"

namespace mrts::obs {
class Counter;
}  // namespace mrts::obs

namespace mrts::core {

/// Liveness oracle for elastic membership, implemented by
/// core::MembershipManager and installed on every runtime (and the cluster
/// balancer) via set_membership_view. Absent (nullptr) means static
/// membership: every node is permanently up and accepting.
class MembershipView {
 public:
  virtual ~MembershipView() = default;
  /// The node is running (Up or Draining): it polls its inbox and makes
  /// progress. Down nodes do neither.
  [[nodiscard]] virtual bool node_up(NodeId node) const = 0;
  /// The node accepts new placements, migrations, and stolen work (Up and
  /// not Draining).
  [[nodiscard]] virtual bool node_accepting(NodeId node) const = 0;
  /// The node left permanently (planned drain reached Down): it will never
  /// poll its inbox again, so stale routes naming it must be re-aimed. A
  /// crashed node that will rejoin is down but NOT departed — frames sent to
  /// it park in its inbox (the fabric's in-flight balance keeps the run from
  /// quiescing over them) and drain when it rejoins.
  [[nodiscard]] virtual bool node_departed(NodeId node) const = 0;
  /// Some accepting node other than `exclude`, or `exclude` itself when no
  /// such node exists.
  [[nodiscard]] virtual NodeId fallback_node(NodeId exclude) const = 0;
};

struct RuntimeOptions {
  OocOptions ooc;
  tasking::PoolBackend pool_backend = tasking::PoolBackend::kWorkStealing;
  /// Workers for intra-handler task parallelism (the computing layer).
  std::size_t pool_workers = 1;
  /// Messages processed from one object's queue before the control layer
  /// considers switching to another object.
  std::size_t max_messages_per_turn = 64;
  /// Lazy directory updates (paper [27]): after a forwarded delivery, every
  /// node on the route learns the object's current location. Disable to
  /// measure the cost of forwarding through stale entries forever.
  bool lazy_location_updates = true;
  /// Retry policy for transient (kUnavailable) storage failures, applied by
  /// the storage layer before an error reaches the recovery ladder.
  storage::RetryPolicy storage_retry{};
  /// Run the storage layer inline on the control thread instead of on the
  /// I/O thread. Sacrifices I/O overlap for a deterministic completion
  /// order; the deterministic (seed-replay) driver sets it. Cluster also
  /// sets it on every node whose spill stack is a bare MemStore, which has
  /// no device time to overlap: there a hand-off to the I/O thread and back
  /// costs more than the copy.
  bool synchronous_storage = false;
  /// Clean-spill elision: evicting an object whose dirty generation still
  /// matches the blob its last spill left on the backend skips
  /// serialize+store entirely and just drops the in-core copy. Disable to
  /// force every eviction through the full spill path — the forced-spill
  /// baseline the elision bench and the chaos digest cross-check compare
  /// against (also restores the pre-elision behavior of erasing the blob on
  /// reload).
  bool spill_elision = true;
  /// Write-behind bound for dirty evictions under *soft* pressure: no new
  /// spill store is issued while at least this many serialized bytes are
  /// still in flight to the storage layer; completions drained in
  /// progress_once() free the budget. Hard-pressure evictions ignore the
  /// bound (memory must be freed now). 0 = unbounded.
  std::size_t write_behind_max_bytes = 8u << 20;
  /// Storage-failure recovery (the self-healing path): exhausted loads and
  /// corrupt blobs never throw; the runtime walks a recovery ladder
  /// (re-issued load → checkpoint copy → poison) and failed spill-stores
  /// reinstall the object in core from the returned payload.
  struct Recovery {
    /// Optional side store that receives a copy of every object blob written
    /// by checkpoint_to(); the ladder's second rung reads it back. Shared
    /// ownership: the cluster owns one per node, tests may inject their own.
    std::shared_ptr<storage::StorageBackend> checkpoint_store;
  } recovery;
  /// End-to-end reliable delivery (simnet/reliable.hpp). When enabled, every
  /// runtime AM is wrapped in a sequenced DATA frame with ack/retransmit and
  /// receiver-side dedup + reordering buffer, so handlers observe FIFO,
  /// exactly-once delivery even over a lossy fabric. Note that wire traffic
  /// then consists of kAmReliableData/kAmReliableAck frames: fault plans
  /// targeting the inner channel ids (0-4) no longer match anything.
  net::ReliableOptions reliable_net;
};

/// The runtime's active-message channels, in registration order. Fabric
/// fault plans and trace checkers refer to wire traffic by these ids.
inline constexpr net::AmHandlerId kAmDeliver = 0;
inline constexpr net::AmHandlerId kAmLocationUpdate = 1;
inline constexpr net::AmHandlerId kAmInstall = 2;
inline constexpr net::AmHandlerId kAmMigrateRequest = 3;
inline constexpr net::AmHandlerId kAmMulticast = 4;
/// Registered by ReliableLink (when reliable_net.enabled) right after the
/// five runtime channels, so they too are part of the wire contract. Under
/// reliable mode these are the only ids that appear on the fabric; the ids
/// above become inner channel tags carried inside DATA frames.
inline constexpr net::AmHandlerId kAmReliableData = 5;
inline constexpr net::AmHandlerId kAmReliableAck = 6;

/// Dynamic load-balancing knobs (paper §II.D: the control layer "serves
/// system aspects like ... decision making for load-balancing"). The
/// cluster monitor samples per-node queued work and advises overloaded
/// nodes to shed mobile objects (with their message queues) to the least
/// loaded node; overdecomposition (paper §II.C) is what makes the shed
/// units small enough to matter.
struct LoadBalanceOptions {
  bool enabled = false;
  /// Rebalance when max_load > factor * min_load + slack.
  double imbalance_factor = 2.0;
  std::uint64_t slack_messages = 8;
  /// Objects shed per advice.
  std::uint32_t objects_per_advice = 2;
  /// Monitor sampling interval.
  std::chrono::milliseconds interval{5};
};

/// Application-visible priority range; higher keeps objects in-core longer.
inline constexpr int kMinPriority = 0;
inline constexpr int kMaxPriority = 10;
inline constexpr int kDefaultPriority = 5;

/// Application-visible health of a local object's storage state.
enum class ObjectHealth : std::uint8_t {
  kHealthy = 0,
  /// The recovery ladder was exhausted: the object's state is lost. It stays
  /// in the directory (so routing still resolves), but queued messages were
  /// dropped and new sends to it are dropped and counted.
  kPoisoned,
};

class Runtime {
  // Declared ahead of the public API, whose CheckpointImage holds them.
  struct QueuedMessage {
    HandlerId handler;
    NodeId src;
    std::vector<std::byte> payload;
    // Local observability only — not part of the wire/checkpoint format.
    // A message that travels (migration, checkpoint) restarts its wait.
    std::uint64_t enq_ts = 0;  // trace clock at local enqueue
    std::uint32_t hops = 0;    // directory forwarding hops before arrival
  };

  /// A mobile object serialized for transfer (paper §II.B): the one image
  /// that migration, steal claims, crash export and checkpoints all carry.
  /// Layout: ptr id, type, epoch (u64), priority (i32), queue length (u64),
  /// per message its handler, source node and payload, then the sealed blob
  /// (u64 length + bytes). Written only by write_image, read only by
  /// read_image.
  struct ObjectImage {
    MobilePtr ptr;
    TypeId type = 0;
    /// Epoch of the installation the image creates.
    std::uint64_t epoch = 0;
    int priority = kDefaultPriority;
    std::deque<QueuedMessage> queue;
    /// Sealed blob; a view into the buffer the image was read from.
    std::span<const std::byte> blob;
  };

 public:
  Runtime(NodeId node, net::Endpoint& endpoint,
          const ObjectTypeRegistry& registry,
          std::unique_ptr<storage::StorageBackend> spill_backend,
          RuntimeOptions options);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // --- object lifetime ---------------------------------------------------

  /// Installs `obj` (of registered type `type`) as a new local in-core
  /// mobile object and returns its mobile pointer.
  MobilePtr adopt(TypeId type, std::unique_ptr<MobileObject> obj);

  /// Creates a T in place. T must be the class registered under `type`.
  template <typename T, typename... Args>
  std::pair<MobilePtr, T*> create(TypeId type, Args&&... args) {
    auto owned = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = owned.get();
    MobilePtr p = adopt(type, std::move(owned));
    return {p, raw};
  }

  /// Destroys a local object (must not be running a handler). Pending
  /// messages are dropped; the spill blob, if any, is erased.
  void destroy(MobilePtr ptr);

  // --- messaging -----------------------------------------------------------

  /// Posts a one-sided message to the object named by `dst`. Local targets
  /// are queued (out-of-core ones are scheduled for loading); remote targets
  /// are routed through the distributed directory.
  void send(MobilePtr dst, HandlerId handler, std::vector<std::byte> payload);

  void send(MobilePtr dst, HandlerId handler, util::ByteWriter&& w) {
    send(dst, handler, w.take());
  }

  /// Shared-memory shortcut: if `dst` is local and in-core, runs the handler
  /// synchronously on the calling (control) thread and returns true;
  /// otherwise returns false and the caller should fall back to send().
  bool try_deliver_inline(MobilePtr dst, HandlerId handler,
                          std::span<const std::byte> payload);

  /// Multicast mobile message (paper §III "Findings"): collects all
  /// `targets` onto one node and in-core, then delivers the message to the
  /// first `deliver_count` of them. Collection migrates remote targets to
  /// the coordinator node (the current owner of targets[0]).
  void send_multicast(std::vector<MobilePtr> targets,
                      std::uint32_t deliver_count, HandlerId handler,
                      std::vector<std::byte> payload);

  // --- out-of-core control (paper §II.E) -----------------------------------

  /// Pins a local object in memory; loads it first if necessary.
  void lock_in_core(MobilePtr ptr);
  /// Releases one lock_in_core pin. Throws std::logic_error when the object
  /// holds none.
  void unlock(MobilePtr ptr);
  void set_priority(MobilePtr ptr, int priority);
  /// Hints the runtime to load an out-of-core object ahead of demand.
  void prefetch(MobilePtr ptr);

  /// Re-reads the object's footprint and relieves memory pressure. Handlers
  /// get this automatically after they return; call it manually after
  /// mutating a local object outside a handler (the paper's "allocation
  /// check" against the hard swapping threshold).
  void refresh_footprint(MobilePtr ptr);

  /// Re-partitions this node's out-of-core memory budget at runtime (the
  /// service layer's fair-share hook). Shrinking triggers eviction
  /// immediately: hard pressure is relieved synchronously, then soft
  /// (background) pressure issues write-behind spills up to the in-flight
  /// budget; what remains drains across subsequent progress_once()
  /// iterations. options().ooc.memory_budget_bytes keeps the configured
  /// physical capacity — the chaos budget invariant checks peaks against
  /// that, so dynamic partitions must stay at or below it. Control-thread
  /// only, like the rest of the OOC API.
  void set_memory_budget(std::size_t bytes);

  /// The OOC layer's current (possibly re-partitioned) working budget;
  /// equals options().ooc.memory_budget_bytes until set_memory_budget is
  /// called.
  [[nodiscard]] std::size_t memory_budget_bytes() const {
    return ooc_.memory_budget_bytes();
  }

  [[nodiscard]] bool is_local(MobilePtr ptr) const;
  [[nodiscard]] bool is_in_core(MobilePtr ptr) const;

  /// Direct pointer to a local in-core object, nullptr otherwise. For
  /// control-thread inspection; do not retain across progress calls.
  [[nodiscard]] MobileObject* peek(MobilePtr ptr);

  /// Moves a local, idle object to another node. The move of an object that
  /// is out of core, running or locked stays pending until it is free. One
  /// held back only by lock_in_core pins waits for their unlock(), which
  /// only the application issues, so it does not keep the node busy.
  void migrate(MobilePtr ptr, NodeId dst);
  /// True when a migrate() of `ptr` is pending here and only lock_in_core
  /// pins hold it back. Control-thread only.
  [[nodiscard]] bool migration_held_by_locks(MobilePtr ptr) const;

  // --- driving -------------------------------------------------------------

  /// One control-loop iteration: deliver due network messages, finish
  /// completed I/O, start advised loads/evictions, run at most one object's
  /// message batch. Returns true if any work was performed.
  bool progress_once();

  /// True when this node has nothing runnable, queued, or in flight.
  [[nodiscard]] bool is_idle() const;

  /// Monotone counter of locally created work units; the cluster's
  /// termination detector compares successive global snapshots.
  [[nodiscard]] std::uint64_t activity_epoch() const {
    return activity_.load(std::memory_order_acquire);
  }

  /// Messages currently queued at local objects (the load metric the
  /// balancer samples). Thread-safe.
  [[nodiscard]] std::uint64_t queued_messages() const {
    return queued_messages_.load(std::memory_order_acquire);
  }

  /// Thread-safe advice from the cluster monitor: shed up to `count`
  /// queued objects to `target` at the next control-loop iteration.
  void advise_shed(std::uint32_t count, NodeId target);

  // --- introspection ---------------------------------------------------------

  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] NodeCounters& counters() { return counters_; }
  [[nodiscard]] const NodeCounters& counters() const { return counters_; }
  [[nodiscard]] tasking::TaskPool& pool() { return *pool_; }
  [[nodiscard]] const ObjectTypeRegistry& registry() const { return registry_; }
  [[nodiscard]] std::size_t in_core_bytes() const { return ooc_.in_core_bytes(); }
  [[nodiscard]] std::size_t resident_objects() const {
    return ooc_.resident_count();
  }
  /// Largest blob currently on the spill backend — the input to the hard
  /// threshold. Shrinks when that blob is erased (migration out, destroy).
  [[nodiscard]] std::size_t largest_spilled_bytes() const {
    return ooc_.largest_spilled_bytes();
  }
  /// Serialized spill bytes issued by this runtime and not yet completed
  /// (the write-behind budget's current fill).
  [[nodiscard]] std::size_t write_behind_inflight_bytes() const {
    return write_behind_inflight_bytes_;
  }
  [[nodiscard]] std::size_t local_objects() const;
  [[nodiscard]] const storage::StorageBackend& spill_backend() const {
    return store_.backend();
  }
  [[nodiscard]] const RuntimeOptions& options() const { return options_; }

  /// Health of a local object (kHealthy for unknown/remote objects: poison
  /// is a property of the hosting replica's storage, not of the pointer).
  [[nodiscard]] ObjectHealth object_health(MobilePtr ptr) const;

  /// Structured log of storage failures and their resolutions.
  [[nodiscard]] const FailureLedger& failure_ledger() const { return ledger_; }

  /// Reliable-delivery layer, or nullptr when reliable_net is disabled.
  /// Invariant checkers read its flow snapshots at quiescence.
  [[nodiscard]] const net::ReliableLink* reliable_link() const {
    return reliable_.get();
  }

  /// Transient storage retries performed by this node's storage layer.
  [[nodiscard]] std::uint64_t storage_retries() const {
    return store_.retries_performed();
  }

  /// Backoff accumulated by the retry policy, in microseconds (virtual time
  /// only under the deterministic driver — nothing slept).
  [[nodiscard]] std::uint64_t storage_backoff_us() const {
    return store_.backoff_microseconds();
  }

  /// Drains outstanding spills (used by tests and at phase boundaries).
  void flush_stores() { store_.drain(); }

  // --- checkpoint/restore support (see core/checkpoint.hpp) ---------------

  /// Serializes every local object (in-core or spilled) with its queue and
  /// metadata, one object image each (the install-frame layout, epoch 1: a
  /// restored world restarts the epoch clock). Phase-boundary only: no
  /// handler running, no I/O in flight (kInvalidArgument otherwise); spilled
  /// blobs that cannot be read back surface as the load's status. When a
  /// recovery checkpoint_store is configured, each object's sealed blob is
  /// also copied into it.
  [[nodiscard]] util::Status checkpoint_to(util::ByteWriter& out);

  /// One node's checkpoint_to image, parsed and validated by
  /// parse_checkpoint, with every object already deserialized.
  struct CheckpointImage {
    std::uint64_t next_seq = 0;
    std::vector<std::pair<ObjectImage, std::unique_ptr<MobileObject>>> objects;
  };

  /// Restore, first half: parses and validates an image written by
  /// checkpoint_to without changing any state. A truncated or corrupt image
  /// (bad seal, unknown type or handler, a count larger than the image)
  /// or one naming an object this node already hosts is an error Status,
  /// never an exception.
  [[nodiscard]] util::Result<CheckpointImage> parse_checkpoint(
      util::ByteReader& in) const;

  /// Restore, second half: installs a parsed image on this node. Cannot
  /// fail.
  void restore(CheckpointImage image);

  /// Seeds the directory cache: the object is currently hosted at `where`.
  /// Used after restore so home nodes relearn migrated objects' locations.
  void note_remote_location(MobilePtr ptr, NodeId where);

  /// Epoch-versioned seed (the membership handoff path): applies only when
  /// strictly fresher than what this node already knows, exactly like an
  /// am_location_update — stale handoffs can never regress the directory.
  void note_remote_location(MobilePtr ptr, NodeId where, std::uint64_t epoch);

  // --- elastic membership (core/membership.hpp) ----------------------------

  /// Installs the liveness oracle consulted by routing, lazy location
  /// updates, and migrate(). nullptr restores static membership.
  void set_membership_view(const MembershipView* view) { membership_ = view; }
  [[nodiscard]] const MembershipView* membership_view() const {
    return membership_;
  }

  /// True when this node hosts the object (any residency except kRemote).
  [[nodiscard]] bool hosts(MobilePtr ptr) const;

  /// Work stealing, claim half. If the object is stealable (in-core, idle,
  /// unlocked, unpoisoned, not collected, with queued work), detaches it —
  /// object state plus message queue — into an install-wire frame written to
  /// `frame` and freezes the entry (Entry::stolen). The frame doubles as the
  /// speculation checkpoint: commit ships it to the thief over the existing
  /// install path, abort deserializes it back. Returns false (and leaves the
  /// entry untouched) when the object is not stealable.
  [[nodiscard]] bool steal_claim(MobilePtr ptr, std::vector<std::byte>& frame);

  /// Work stealing, decision half, called at the end of the speculation
  /// window. Commits (entry flips to kRemote at `thief`, epoch bumped, frame
  /// shipped via the install channel) unless a conflicting mutation landed
  /// during the window — an arrival, lock, multicast collect, or migrate on
  /// the frozen entry, or the thief no longer accepting — in which case the
  /// claim rolls back: the object is restored from the frame and the claimed
  /// messages are re-spliced ahead of window arrivals, preserving local
  /// FIFO. `force_abort` rolls back unconditionally (membership teardown).
  /// Returns true on commit, false on rollback.
  bool steal_resolve(MobilePtr ptr, NodeId thief, std::vector<std::byte> frame,
                     bool force_abort = false);

  /// Entries currently frozen by an unresolved steal claim.
  [[nodiscard]] std::size_t stolen_entries() const;

  /// One object exported by crash_export(): the install-wire frame that
  /// reinstalls it (queue included) on a survivor, or lost=true when no
  /// intact copy of its state could be found on any rung.
  struct RecoveredObject {
    MobilePtr ptr;
    std::uint64_t epoch = 0;
    std::vector<std::byte> frame;
    bool lost = false;
  };

  /// Fail-stop crash, export half: drains in-flight I/O, then serializes
  /// every hosted object into an install frame — in-core objects directly
  /// (each leaves core as it is written), spilled ones via a replica scan
  /// (load back through the replicated storage stack, falling back to the
  /// checkpoint side-store). Sorted by object id for deterministic replay.
  /// Driver-side only: the membership manager calls this, then crash_wipe,
  /// between deterministic sweeps.
  [[nodiscard]] std::vector<RecoveredObject> crash_export();

  /// Fail-stop crash, state-loss half: erases the directory, queues, spill
  /// and checkpoint blobs — the node becomes a fresh empty member. The
  /// reliable link, parked inbox frames, and monotone message sequence
  /// survive (the link's session state is modeled as living in the
  /// replicated control log), so retransmit/dedup keep exactly-once across
  /// the crash and parked traffic drains when the node rejoins.
  void crash_wipe();

  /// Installs one crash_export frame on this node (the rebuild target),
  /// exactly as if it had arrived on the install channel from `from`.
  void install_recovered(NodeId from, std::span<const std::byte> frame);

  /// True when no fabric frames are parked in this node's inbox.
  [[nodiscard]] bool inbox_empty() const { return endpoint_.inbox_empty(); }

  /// for_each_directory_entry plus the entry's epoch — the membership
  /// handoff/rebuild scans need the version to seed strictly-fresher
  /// updates.
  template <typename Fn>
  void for_each_directory_entry_ex(Fn&& fn) const {
    for (const auto& [ptr, e] : directory_) {
      fn(ptr, e.state != Residency::kRemote, e.last_known, e.epoch);
    }
  }

  /// Invokes fn(ptr) for every object hosted on this node.
  template <typename Fn>
  void for_each_local_object(Fn&& fn) const {
    for (const auto& [ptr, e] : directory_) {
      if (e.state != Residency::kRemote) fn(ptr);
    }
  }

  /// Invokes fn(ptr, is_local, last_known) for every directory entry,
  /// including cached remote locations. `last_known` is meaningful only
  /// when is_local is false. Used by the chaos harness's directory
  /// convergence checker.
  template <typename Fn>
  void for_each_directory_entry(Fn&& fn) const {
    for (const auto& [ptr, e] : directory_) {
      fn(ptr, e.state != Residency::kRemote, e.last_known);
    }
  }

  /// High-watermark of in-core bytes (see OocLayer::peak_in_core_bytes).
  [[nodiscard]] std::size_t peak_in_core_bytes() const {
    return ooc_.peak_in_core_bytes();
  }

 private:
  enum class Residency { kInCore, kLoading, kStoring, kOnDisk, kRemote };

  struct MulticastOp {
    std::uint64_t id;
    std::vector<MobilePtr> targets;
    std::uint32_t deliver_count;
    HandlerId handler;
    std::vector<std::byte> payload;
    NodeId origin_src;
    /// Per-target flag: a migrate request has been issued for this target.
    std::vector<bool> requested;
    std::uint64_t start_ts = 0;  // trace clock when collection began locally
  };

  struct Entry {
    Residency state = Residency::kRemote;
    TypeId type = 0;
    std::unique_ptr<MobileObject> obj;
    NodeId last_known = 0;
    /// Version of the location knowledge. Hosted entries carry the epoch of
    /// the current installation (creation is epoch 1, each migration bumps
    /// it); kRemote entries carry the epoch at which `last_known` hosted the
    /// object. Location updates apply only when strictly fresher, so stale
    /// (delayed, reordered) updates can never regress the directory and
    /// every last_known chain is strictly epoch-increasing — i.e. acyclic.
    std::uint64_t epoch = 0;
    std::deque<QueuedMessage> queue;
    int priority = kDefaultPriority;
    int lock_count = 0;
    bool running = false;
    bool in_ready_list = false;
    bool load_wanted = false;   // lock/prefetch asked for a load
    bool load_queued = false;   // present in load_queue_
    bool poisoned = false;      // recovery ladder exhausted; state lost
    std::size_t footprint = 0;
    std::size_t blob_bytes = 0;  // size of the on-disk blob
    /// Seal CRC of the blob written by the last spill: content identity of
    /// the bytes a reload must produce. Defense in depth against a stale
    /// replica serving an older (seal-valid!) version, and the acceptance
    /// check for the ladder's checkpoint rung.
    std::uint32_t blob_crc = 0;
    /// Dirty generation captured by the last *successful* spill store: the
    /// blob on the backend serializes exactly that generation of the
    /// object. 0 = no landed blob. Set only when the store completes OK —
    /// never at issue time — so a failed write-behind store can't leave the
    /// entry claiming a CRC for bytes that never landed.
    std::uint64_t stored_gen = 0;
    std::uint64_t collect_for = 0;  // nonzero: reserved by a multicast op
    /// Work-stealing speculation window: steal_claim() detached the object
    /// and its queue into a claim frame (the rollback image); the entry is
    /// frozen until steal_resolve() commits or aborts. Arrivals during the
    /// window park on the queue and set steal_conflict.
    bool stolen = false;
    bool steal_conflict = false;
  };

  struct Completion {
    std::uint64_t key;
    bool is_load;
    util::Status status;
    /// Load payload on a successful load; on a FAILED store, the sealed
    /// payload handed back by the storage layer (the object's only copy).
    std::vector<std::byte> bytes;
    /// Stores only: sealed payload size (drains the write-behind budget
    /// even when the entry is gone) and the dirty generation the blob
    /// serializes (recorded on the entry only on success).
    std::size_t spill_bytes = 0;
    std::uint64_t spill_gen = 0;
    /// Loads only: the I/O thread's verdict that `bytes` is an intact sealed
    /// blob (sealed_blob_valid), so draining it costs no checksum pass.
    bool sealed = false;
  };

  // wire protocol -----------------------------------------------------------
  void register_am_handlers();
  /// Routes every outgoing AM: through the ReliableLink when reliable_net is
  /// enabled, straight onto the fabric otherwise. `channel` is one of the
  /// five kAm* runtime channels.
  void net_send(NodeId dst, net::AmHandlerId channel,
                std::vector<std::byte> payload);
  /// Zero-copy variant of net_send: `fn(ByteWriter&)` serializes the AM
  /// directly into the reliable link's open batch frame (or, on the raw
  /// path, into the vector the fabric takes ownership of) — no intermediate
  /// per-message staging buffer. All five kAm* channels route through here.
  template <typename Fn>
  void net_send_with(NodeId dst, net::AmHandlerId channel,
                     std::size_t size_hint, Fn&& fn) {
    if (reliable_ != nullptr) {
      reliable_->send_with(dst, channel, size_hint, std::forward<Fn>(fn));
      return;
    }
    util::ByteWriter w(size_hint);
    fn(w);
    endpoint_.send(dst, channel, w.take());
  }
  /// ReliableLink dispatch target: hands a dispatched frame's payload to the
  /// handler registered for its inner channel.
  void dispatch_reliable(NodeId src, net::AmHandlerId channel,
                         util::ByteReader& in);
  void am_deliver(NodeId src, util::ByteReader& in);
  void am_location_update(NodeId src, util::ByteReader& in);
  void am_install(NodeId src, util::ByteReader& in);
  void am_migrate_request(NodeId src, util::ByteReader& in);
  void am_multicast(NodeId src, util::ByteReader& in);

  void route_remote(MobilePtr dst, HandlerId handler, NodeId origin,
                    std::vector<NodeId> route, std::vector<std::byte> payload);

  // control loop helpers ------------------------------------------------------
  void enqueue_local(Entry& e, MobilePtr ptr, QueuedMessage msg);
  void push_ready(Entry& e, MobilePtr ptr);
  bool run_ready_object();
  void execute_message(MobilePtr ptr, Entry& e, QueuedMessage& msg);
  /// Runs one handler against the in-core object of `e`, charged to span
  /// `span_name`, and marks the object dirty unless the handler is
  /// read-only. Every handler invocation funnels through here.
  void run_handler(MobilePtr ptr, Entry& e, HandlerId handler, NodeId src,
                   std::span<const std::byte> payload, const char* span_name);
  bool drain_completions();
  /// Queues an I/O completion (any thread) and rings the node's doorbell.
  void push_completion(Completion c);
  /// Installs the object from `bytes`, a sealed blob the caller has already
  /// verified against e.blob_crc; its payload is not checksummed again.
  void finish_load(Entry& e, MobilePtr ptr, std::vector<std::byte> bytes);
  /// True when the sealed bytes are intact and match the entry's blob_crc.
  [[nodiscard]] bool blob_matches(const Entry& e,
                                  std::span<const std::byte> bytes) const;
  /// Recovery ladder for a load that failed (hard error, bad seal, or stale
  /// content): re-issued load → checkpoint copy → poison.
  void recover_failed_load(MobilePtr ptr, Entry& e, const util::Status& cause);
  /// Recovery for a spill-store that failed: reinstall the object in core
  /// from the payload the storage layer handed back.
  void recover_failed_store(MobilePtr ptr, Entry& e, const util::Status& cause,
                            std::vector<std::byte> bytes);
  /// Last rung: quarantine the object, drop its queue, record the loss.
  void poison_object(MobilePtr ptr, Entry& e, FailureOp op,
                     const util::Status& cause);
  bool schedule_loads();
  void start_load(Entry& e, MobilePtr ptr);
  bool spill_one_victim(bool allow_relaxed = true);
  void spill(MobilePtr ptr, Entry& e);
  /// Evicts until an allocation of `extra` bytes clears the hard threshold
  /// or nothing more is evictable. `strict` limits victims to idle objects.
  void make_room(std::size_t extra, bool strict = false) {
    while (ooc_.hard_pressure(extra) && spill_one_victim(!strict)) {
    }
  }

  /// Strict: idle objects only. Relaxed additionally allows objects with
  /// queued messages (they reload when scheduled) — the escape hatch when
  /// every resident object has pending work and memory must still be freed.
  [[nodiscard]] bool evictable(const Entry& e) const;
  [[nodiscard]] bool evictable_relaxed(const Entry& e) const;
  void after_handler_accounting(MobilePtr ptr, Entry& e);
  bool advance_multicasts();
  bool advance_pending_migrations();
  bool apply_shed_advice();
  void do_migrate(MobilePtr ptr, Entry& e, NodeId dst);

  // residency changes -------------------------------------------------------
  // Every change of where an object's state lives goes through one of these.

  /// The object enters core on `e`: state, footprint, a satisfied
  /// load_wanted, OOC residency, then on_register.
  void install(MobilePtr ptr, Entry& e, std::unique_ptr<MobileObject> obj,
               std::size_t footprint);
  /// Hosts an object revived from `img` as a new installation: the entry
  /// takes the image's type, epoch, priority and queue, and no blob.
  void install_image(ObjectImage& img, std::unique_ptr<MobileObject> obj);
  /// The object leaves core. on_unregister runs first, so whatever it
  /// changes (and marks dirty) is what `capture()` then sees: the spill
  /// path's elision check and serialization, or an image writer. Then the
  /// object is dropped and the OOC layer forgets its residency.
  template <typename Capture>
  void leave_core(MobilePtr ptr, Entry& e, Capture&& capture);
  /// The entry stops claiming a spill blob: the OOC layer forgets its size
  /// and blob_bytes, blob_crc and stored_gen are zeroed. `erase_stored`
  /// also erases it from the spill backend.
  void forget_blob(MobilePtr ptr, Entry& e, bool erase_stored);
  /// Puts an on-disk entry on the load queue, once, if anything wants it in
  /// core (queued messages or load_wanted); true when it was queued now.
  bool want_load(MobilePtr ptr, Entry& e);

  // object images ----------------------------------------------------------

  /// The one image writer: `e`'s header with `epoch`, its queue, then its
  /// sealed blob — `sealed` verbatim when given, else the in-core object
  /// serialized and sealed in place (zero-copy into `w`, which may be the
  /// reliable link's open batch). Returns the blob as written into `w`.
  std::span<const std::byte> write_image(
      util::ByteWriter& w, MobilePtr ptr, const Entry& e, std::uint64_t epoch,
      std::span<const std::byte> sealed = {});
  /// The one image reader; throws util::ArchiveError on a truncated image.
  static ObjectImage read_image(util::ByteReader& in);
  /// A blank `type` instance deserialized from a verified blob payload.
  std::unique_ptr<MobileObject> revive(TypeId type,
                                       std::span<const std::byte> payload,
                                       const char* span_name);

  /// Membership guard: true when `n` is up / accepting under the installed
  /// view (vacuously true without one).
  [[nodiscard]] bool peer_up(NodeId n) const {
    return membership_ == nullptr || membership_->node_up(n);
  }
  [[nodiscard]] bool peer_accepting(NodeId n) const {
    return membership_ == nullptr || membership_->node_accepting(n);
  }
  /// Re-aims a next-hop that names a departed node (see
  /// MembershipView::node_departed): prefer the object's home if it is a
  /// live third party, else any accepting node. Returns `next` unchanged
  /// under static membership or when the hop is not departed.
  [[nodiscard]] NodeId reroute_if_departed(NodeId next, MobilePtr dst) const;
  /// Records a refused migration (non-accepting target): ledger record,
  /// counter, trace instant. The object stays put.
  void refuse_migration(MobilePtr ptr, NodeId dst);
  /// Records a unit of created work. Also clears the idle flag immediately:
  /// work can be created while the control thread is deep inside a long
  /// message handler (e.g. an AM delivery during poll()), and the
  /// termination detector must not observe a stale idle=true in that
  /// window after the fabric's delivered-counter has caught up.
  void bump_activity() {
    idle_.store(false, std::memory_order_release);
    activity_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Every queued_messages_ decrement funnels through here: an underflow
  /// means a drop path (poison, migration, destroy) double-counted queue
  /// entries, which debug builds catch immediately.
  void sub_queued(std::size_t n) {
    if (n == 0) return;
    [[maybe_unused]] const auto prev =
        queued_messages_.fetch_sub(n, std::memory_order_acq_rel);
    assert(prev >= n && "queued_messages_ underflow");
  }

  /// True while soft-pressure (background) evictions may issue another
  /// spill store without blowing the write-behind budget.
  [[nodiscard]] bool write_behind_has_budget() const {
    return options_.write_behind_max_bytes == 0 ||
           write_behind_inflight_bytes_ < options_.write_behind_max_bytes;
  }

  Entry& entry_of(MobilePtr ptr);
  [[nodiscard]] const Entry* find_entry(MobilePtr ptr) const;
  Entry* find_entry(MobilePtr ptr);

  /// Samples observability gauges/counters after a handler batch; no-op
  /// cost when tracing is disabled beyond two relaxed atomic adds.
  void sample_observability();

  NodeId node_;
  net::Endpoint& endpoint_;
  const ObjectTypeRegistry& registry_;
  RuntimeOptions options_;
  const MembershipView* membership_ = nullptr;
  NodeCounters counters_;
  FailureLedger ledger_;
  obs::Counter* ooc_hits_;    // registry-owned; message target was in-core
  obs::Counter* ooc_misses_;  // message target was on disk / in flight
  obs::Counter* ooc_evictions_;
  obs::Counter* ooc_elisions_;  // evictions satisfied without a store
  OocLayer ooc_;
  storage::ObjectStore store_;
  std::unique_ptr<tasking::TaskPool> pool_;

  std::unordered_map<MobilePtr, Entry> directory_;
  std::deque<MobilePtr> ready_;
  std::deque<MobilePtr> load_queue_;
  std::vector<MulticastOp> multicasts_;
  /// Migration requests that found the object busy; retried each loop.
  std::vector<std::pair<MobilePtr, NodeId>> pending_migrations_;

  std::uint64_t next_seq_ = 1;
  std::uint64_t next_multicast_id_ = 1;
  int outstanding_loads_ = 0;
  int outstanding_stores_ = 0;
  /// Control-thread-owned: bytes of issued spill stores whose completions
  /// have not yet been drained. Bounds soft-pressure eviction (write-behind).
  std::size_t write_behind_inflight_bytes_ = 0;

  std::mutex completions_mutex_;
  std::vector<Completion> completions_;
  std::atomic<int> completions_available_{0};

  std::atomic<std::uint64_t> activity_{0};
  std::atomic<bool> idle_{false};
  std::atomic<std::uint64_t> queued_messages_{0};
  std::atomic<std::uint32_t> shed_count_{0};
  std::atomic<NodeId> shed_target_{0};

  net::AmHandlerId am_deliver_id_ = 0;
  net::AmHandlerId am_location_update_id_ = 0;
  net::AmHandlerId am_install_id_ = 0;
  net::AmHandlerId am_migrate_request_id_ = 0;
  net::AmHandlerId am_multicast_id_ = 0;
  /// Present iff options_.reliable_net.enabled; constructed after the five
  /// runtime handlers so its DATA/ACK ids land on kAmReliableData/Ack.
  std::unique_ptr<net::ReliableLink> reliable_;
};

}  // namespace mrts::core
