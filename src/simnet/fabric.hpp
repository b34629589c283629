#pragma once

// Simulated cluster interconnect. The paper runs MRTS over ARMCI one-sided
// communication on real clusters; here every "node" is a thread inside one
// process and the Fabric carries one-sided active messages between their
// Endpoints. Semantics preserved from the ARMCI/AM model that the MRTS
// control layer depends on:
//   - one-sided: the receiver never posts a receive; a registered handler
//     is invoked when the endpoint makes progress (poll), like a GASNet AM
//     polling engine;
//   - FIFO between any ordered pair of endpoints, no ordering across pairs;
//   - payloads are byte blobs, physically copied between nodes (no sharing),
//     so serialization is exercised exactly as on a real network.
// A LinkModel adds per-message latency plus a bandwidth term, and optional
// seeded jitter, for latency-tolerance experiments.
//
// Chaos mode (enable_chaos): a seeded NetFaultPlan injects message drops,
// duplications, reorderings, and virtual-time delays at send time, and a
// FabricObserver receives one event per transport action. Every logical
// message is stamped with a per-(src,dst)-pair sequence number so invariant
// checkers can verify FIFO order and exactly-once delivery from the event
// stream alone. Delayed messages are parked until advance_step() releases
// them, so delays only make sense under a driver that advances virtual time
// (Cluster's deterministic mode).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/archive.hpp"
#include "util/doorbell.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace mrts::net {

using NodeId = std::uint32_t;
using AmHandlerId = std::uint32_t;

struct LinkModel {
  std::chrono::microseconds latency{0};
  double bandwidth_bytes_per_sec = 0.0;  // <= 0 means infinite
  /// Uniform extra delay in [0, jitter] applied per message (seeded).
  std::chrono::microseconds jitter{0};
  std::uint64_t jitter_seed = 1;
};

struct FabricStats {
  /// Logical sends: one per Endpoint::send, regardless of what fault
  /// injection did to the message (a duplicate is still ONE logical send).
  std::uint64_t messages_sent = 0;
  /// Handler invocations: one per inbox copy actually delivered (an injected
  /// duplicate delivers twice, a dropped message never).
  std::uint64_t messages_delivered = 0;
  std::uint64_t bytes_sent = 0;
  // Chaos-mode fault injections (all zero when chaos is disabled).
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_duplicated = 0;
  std::uint64_t messages_delayed = 0;
  std::uint64_t messages_reordered = 0;
};

/// Virtual-step span [begin_step, end_step) during which a scheduled fault
/// applies — the network-side analogue of storage::FaultWindow, which spans
/// operation indices instead of steps.
struct StepWindow {
  std::uint64_t begin_step = 0;
  std::uint64_t end_step = 0;
};

/// Seeded network fault injection applied to every send while enabled.
/// Rates are independent probabilities evaluated in the order drop,
/// duplicate, delay, reorder (at most one fault per message).
struct NetFaultPlan {
  double drop_rate = 0.0;     // message silently vanishes
  double dup_rate = 0.0;      // message is enqueued twice
  double reorder_rate = 0.0;  // message jumps the destination inbox queue
  double delay_rate = 0.0;    // message is parked for a few virtual steps
  /// Uniform hold duration in [1, max_delay_steps] virtual steps.
  std::uint32_t max_delay_steps = 8;
  /// Deliberate bug injection: every message addressed to this AM handler
  /// is dropped (e.g. location updates, to starve the lazy directory).
  std::optional<AmHandlerId> drop_handler{};
  /// Bounds drop_handler to virtual-step windows: with a non-empty list the
  /// handler's messages are dropped only while the driver's current step
  /// falls inside one of them, so a starvation drill can END and recovery
  /// afterward is assertable. Empty = drop forever (the legacy drill).
  std::vector<StepWindow> drop_handler_windows{};
  /// Gray failure: a stalling NIC. Every message SENT by `node` while the
  /// driver's step is in [begin_step, end_step) is parked for a FIXED
  /// `delay_steps` — no RNG draw is consumed, so adding windows leaves the
  /// chaos RNG stream (and therefore every existing plan's fault schedule)
  /// byte-identical. Messages are slow, never lost: degradation, not
  /// partition.
  struct DegradedLink {
    NodeId node = 0;
    std::uint64_t begin_step = 0;
    std::uint64_t end_step = 0;
    std::uint32_t delay_steps = 2;
  };
  std::vector<DegradedLink> degraded_links{};
  std::uint64_t seed = 1;

  [[nodiscard]] bool any() const {
    return drop_rate > 0.0 || dup_rate > 0.0 || reorder_rate > 0.0 ||
           delay_rate > 0.0 || drop_handler.has_value() ||
           !degraded_links.empty();
  }
};

enum class MsgEventKind : std::uint8_t {
  kSend,
  kDeliver,
  kDrop,
  kDuplicate,
  kDelay,
  kReorder,
};

[[nodiscard]] std::string_view to_string(MsgEventKind kind);

/// One transport-layer action on a logical message. `pair_seq` numbers the
/// messages of each ordered (src,dst) endpoint pair from 1; a duplicated
/// message is delivered twice under the same pair_seq.
struct MessageEvent {
  MsgEventKind kind = MsgEventKind::kSend;
  NodeId src = 0;
  NodeId dst = 0;
  AmHandlerId handler = 0;
  std::uint64_t pair_seq = 0;
  std::uint64_t bytes = 0;
  std::uint64_t release_step = 0;  // kDelay only
};

/// Receives every chaos-mode transport event. Calls are serialized by the
/// fabric's chaos mutex on the send side but delivery events are emitted
/// from the polling thread; implementations must be thread-safe when the
/// fabric is driven by more than one thread.
class FabricObserver {
 public:
  virtual ~FabricObserver() = default;
  virtual void on_message(const MessageEvent& event) = 0;
};

class Fabric;

/// Per-node communication endpoint. poll() drives delivery: it pops due
/// messages from the inbox and invokes the registered handlers on the
/// calling thread. All methods are thread-safe.
class Endpoint {
 public:
  /// Handler receives the source node and a reader over the payload.
  using AmHandler = std::function<void(NodeId src, util::ByteReader& payload)>;

  /// Registers a handler and returns its id. Handler tables must be built
  /// identically on every node (same registration order), mirroring how AM
  /// libraries assign handler indices at init time.
  AmHandlerId register_handler(AmHandler handler);

  /// One-sided send: enqueue payload for `dst` and return immediately.
  void send(NodeId dst, AmHandlerId handler, std::vector<std::byte> payload);

  /// Delivers every due message; returns the number delivered.
  std::size_t poll();

  /// True when the inbox holds no messages (due or in flight).
  [[nodiscard]] bool inbox_empty() const;

  /// Inbox copies touching `peer`: all of them when this endpoint IS the
  /// peer (they are addressed to it), otherwise the ones sent by it.
  [[nodiscard]] std::size_t inbox_involving(NodeId peer) const;

  [[nodiscard]] NodeId id() const { return id_; }

  /// Rung whenever a message enters the inbox, so a driver thread can wait
  /// for traffic instead of polling on a timer. The owning node's runtime
  /// rings it for its I/O completions too.
  [[nodiscard]] util::Doorbell& doorbell() { return doorbell_; }

  /// Charges send/deliver busy time to `acc` (may be null to disable).
  void set_comm_accumulator(util::TimeAccumulator* acc) { comm_time_ = acc; }

 private:
  friend class Fabric;
  Endpoint(Fabric& fabric, NodeId id) : fabric_(&fabric), id_(id) {}

  struct Incoming {
    NodeId src;
    AmHandlerId handler;
    std::vector<std::byte> payload;
    util::Clock::time_point deliverable_at;
    std::uint64_t pair_seq = 0;  // stamped in chaos mode, 0 otherwise
  };

  void enqueue(Incoming msg);
  /// Pushes `msg` ahead of everything already queued. Returns true when the
  /// inbox was non-empty, i.e. the message actually displaced another one; a
  /// front-push into an empty inbox is indistinguishable from a plain
  /// delivery and must not be accounted as a reorder.
  bool enqueue_front(Incoming msg);

  Fabric* fabric_;
  NodeId id_;
  mutable std::mutex mutex_;
  std::deque<Incoming> inbox_;
  std::vector<AmHandler> handlers_;  // guarded by handlers_mutex_
  mutable std::mutex handlers_mutex_;
  util::TimeAccumulator* comm_time_ = nullptr;
  util::Doorbell doorbell_;
};

/// Owns the endpoints of one simulated cluster.
class Fabric {
 public:
  explicit Fabric(std::size_t node_count, LinkModel link = {});

  [[nodiscard]] std::size_t node_count() const { return endpoints_.size(); }
  [[nodiscard]] Endpoint& endpoint(NodeId id) { return *endpoints_.at(id); }

  [[nodiscard]] FabricStats stats() const;

  /// Cumulative traffic of one ordered endpoint pair.
  struct PairTraffic {
    NodeId src = 0;
    NodeId dst = 0;
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  };

  /// Per-pair traffic matrix, nonzero pairs only, ordered by (src, dst).
  /// Counts sends (before fault injection, like bytes_sent).
  [[nodiscard]] std::vector<PairTraffic> pair_traffic() const;

  /// True when no message copy is in flight: everything enqueued (or parked
  /// by a delay fault) has been handed to its handler. Combined with
  /// per-node idle flags by the runtime's termination detector. Injected
  /// drops never enter the in-flight count, so a lossy fabric still
  /// converges without pretending the dropped message was delivered.
  [[nodiscard]] bool all_delivered() const {
    return in_flight_.load(std::memory_order_acquire) == 0;
  }

  /// Monotone counter of sends; used by the two-phase termination check to
  /// detect activity between its probes.
  [[nodiscard]] std::uint64_t send_epoch() const {
    return messages_sent_.load(std::memory_order_acquire);
  }

  // --- chaos mode ----------------------------------------------------------

  /// Turns on fault injection and/or event observation. Must be called
  /// before any send; `observer` (may be null) is not owned and must outlive
  /// the fabric's traffic.
  void enable_chaos(NetFaultPlan plan, FabricObserver* observer);

  /// Advances virtual time to `step` and releases every delayed message due
  /// at or before it. Called once per sweep by the deterministic driver.
  void advance_step(std::uint64_t step);

  /// Delayed messages currently parked (sent but not yet deliverable).
  [[nodiscard]] std::size_t held_messages() const;

  /// Message copies anywhere in the fabric — parked by a delay fault or
  /// sitting undelivered in an inbox — that were sent by or are addressed
  /// to `node`. A planned drain may only complete when this is zero:
  /// a duplicated or delayed copy that escapes the reliable layer's ack
  /// accounting would otherwise land in the departed node's inbox after it
  /// stopped polling and veto termination forever.
  [[nodiscard]] std::size_t in_flight_involving(NodeId node) const;

 private:
  friend class Endpoint;

  struct Held {
    NodeId dst;
    Endpoint::Incoming msg;
    std::uint64_t release_step;
  };

  std::chrono::nanoseconds transit_time(std::size_t bytes);

  /// Chaos-mode send path: stamps the pair sequence, rolls the fault plan,
  /// and performs the chosen action (drop, duplicate, delay, reorder, or
  /// plain enqueue).
  void chaos_send(NodeId src, NodeId dst, AmHandlerId handler,
                  std::vector<std::byte> payload);

  /// True when drop_handler applies at the current virtual step.
  [[nodiscard]] bool drop_window_active() const;

  void emit(const MessageEvent& event) {
    if (observer_ != nullptr) observer_->on_message(event);
  }

  LinkModel link_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  // n*n send-side traffic matrix, indexed src * n + dst.
  std::vector<std::atomic<std::uint64_t>> pair_messages_;
  std::vector<std::atomic<std::uint64_t>> pair_bytes_;
  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> messages_delivered_{0};
  /// Inbox copies enqueued (or parked by a delay fault) minus handler
  /// invocations — the termination detector's balance. A duplicate adds 2,
  /// a drop adds 0, so sent/delivered stats no longer have to lie to keep
  /// this converging.
  std::atomic<std::uint64_t> in_flight_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> messages_dropped_{0};
  std::atomic<std::uint64_t> messages_duplicated_{0};
  std::atomic<std::uint64_t> messages_delayed_{0};
  std::atomic<std::uint64_t> messages_reordered_{0};
  std::mutex jitter_mutex_;
  util::Rng jitter_rng_;

  std::atomic<bool> chaos_enabled_{false};
  NetFaultPlan chaos_plan_;
  FabricObserver* observer_ = nullptr;
  mutable std::mutex chaos_mutex_;  // guards the fields below
  util::Rng chaos_rng_{1};
  std::unordered_map<std::uint64_t, std::uint64_t> pair_seq_;
  std::vector<Held> held_;
  std::uint64_t current_step_ = 0;
};

}  // namespace mrts::net
