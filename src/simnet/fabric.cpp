#include "simnet/fabric.hpp"

#include <algorithm>
#include <cassert>

#include "obs/trace.hpp"

namespace mrts::net {

Fabric::Fabric(std::size_t node_count, LinkModel link)
    : link_(link),
      pair_messages_(node_count * node_count),
      pair_bytes_(node_count * node_count),
      jitter_rng_(link.jitter_seed) {
  assert(node_count > 0);
  endpoints_.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    endpoints_.push_back(std::unique_ptr<Endpoint>(
        new Endpoint(*this, static_cast<NodeId>(i))));
  }
}

std::string_view to_string(MsgEventKind kind) {
  switch (kind) {
    case MsgEventKind::kSend: return "send";
    case MsgEventKind::kDeliver: return "deliver";
    case MsgEventKind::kDrop: return "drop";
    case MsgEventKind::kDuplicate: return "dup";
    case MsgEventKind::kDelay: return "delay";
    case MsgEventKind::kReorder: return "reorder";
  }
  return "?";
}

FabricStats Fabric::stats() const {
  return FabricStats{
      .messages_sent = messages_sent_.load(std::memory_order_relaxed),
      .messages_delivered =
          messages_delivered_.load(std::memory_order_relaxed),
      .bytes_sent = bytes_sent_.load(std::memory_order_relaxed),
      .messages_dropped = messages_dropped_.load(std::memory_order_relaxed),
      .messages_duplicated =
          messages_duplicated_.load(std::memory_order_relaxed),
      .messages_delayed = messages_delayed_.load(std::memory_order_relaxed),
      .messages_reordered =
          messages_reordered_.load(std::memory_order_relaxed),
  };
}

std::vector<Fabric::PairTraffic> Fabric::pair_traffic() const {
  const std::size_t n = endpoints_.size();
  std::vector<PairTraffic> out;
  for (std::size_t src = 0; src < n; ++src) {
    for (std::size_t dst = 0; dst < n; ++dst) {
      const std::size_t i = src * n + dst;
      const std::uint64_t messages =
          pair_messages_[i].load(std::memory_order_relaxed);
      if (messages == 0) continue;
      out.push_back(PairTraffic{
          .src = static_cast<NodeId>(src),
          .dst = static_cast<NodeId>(dst),
          .messages = messages,
          .bytes = pair_bytes_[i].load(std::memory_order_relaxed),
      });
    }
  }
  return out;
}

void Fabric::enable_chaos(NetFaultPlan plan, FabricObserver* observer) {
  std::lock_guard lock(chaos_mutex_);
  chaos_plan_ = plan;
  observer_ = observer;
  chaos_rng_ = util::Rng(plan.seed);
  chaos_enabled_.store(true, std::memory_order_release);
}

void Fabric::advance_step(std::uint64_t step) {
  std::lock_guard lock(chaos_mutex_);
  current_step_ = step;
  for (std::size_t i = 0; i < held_.size();) {
    if (held_[i].release_step <= step) {
      Held h = std::move(held_[i]);
      held_.erase(held_.begin() + static_cast<std::ptrdiff_t>(i));
      h.msg.deliverable_at = util::Clock::now();
      endpoint(h.dst).enqueue(std::move(h.msg));
    } else {
      ++i;
    }
  }
}

std::size_t Fabric::held_messages() const {
  std::lock_guard lock(chaos_mutex_);
  return held_.size();
}

std::size_t Fabric::in_flight_involving(NodeId node) const {
  std::size_t n = 0;
  for (const auto& ep : endpoints_) n += ep->inbox_involving(node);
  std::lock_guard lock(chaos_mutex_);
  for (const Held& h : held_) {
    if (h.dst == node || h.msg.src == node) ++n;
  }
  return n;
}

bool Fabric::drop_window_active() const {
  const NetFaultPlan& plan = chaos_plan_;
  if (plan.drop_handler_windows.empty()) return true;  // legacy: forever
  for (const StepWindow& w : plan.drop_handler_windows) {
    if (current_step_ >= w.begin_step && current_step_ < w.end_step) {
      return true;
    }
  }
  return false;
}

void Fabric::chaos_send(NodeId src, NodeId dst, AmHandlerId handler,
                        std::vector<std::byte> payload) {
  const std::size_t bytes = payload.size();
  std::lock_guard lock(chaos_mutex_);
  const std::uint64_t seq =
      ++pair_seq_[(static_cast<std::uint64_t>(src) << 32) | dst];
  MessageEvent ev{.kind = MsgEventKind::kSend,
                  .src = src,
                  .dst = dst,
                  .handler = handler,
                  .pair_seq = seq,
                  .bytes = bytes};
  emit(ev);
  // Every branch below is ONE logical send; what varies is how many inbox
  // copies enter the in-flight balance (0 for drop, 2 for duplicate).
  messages_sent_.fetch_add(1, std::memory_order_acq_rel);
  const NetFaultPlan& plan = chaos_plan_;
  auto roll = [this](double p) { return p > 0.0 && chaos_rng_.uniform() < p; };
  Endpoint::Incoming msg{
      .src = src,
      .handler = handler,
      .payload = std::move(payload),
      .deliverable_at = util::Clock::now() + transit_time(bytes),
      .pair_seq = seq,
  };

  if ((plan.drop_handler && *plan.drop_handler == handler &&
       drop_window_active()) ||
      roll(plan.drop_rate)) {
    // Dropped: no inbox copy, so nothing enters the in-flight balance and
    // the termination detector converges without counting a phantom
    // delivery. Whether anyone retransmits is the reliable layer's problem.
    messages_dropped_.fetch_add(1, std::memory_order_relaxed);
    ev.kind = MsgEventKind::kDrop;
    emit(ev);
    return;
  }
  // Degraded-link park BEFORE any random roll: the fixed hold consumes no
  // randomness, so plans without windows — and the messages outside them —
  // see exactly the RNG stream they always did.
  for (const NetFaultPlan::DegradedLink& w : plan.degraded_links) {
    if (w.node == src && current_step_ >= w.begin_step &&
        current_step_ < w.end_step) {
      const std::uint64_t release =
          current_step_ + std::max<std::uint32_t>(w.delay_steps, 1);
      in_flight_.fetch_add(1, std::memory_order_acq_rel);
      messages_delayed_.fetch_add(1, std::memory_order_relaxed);
      ev.kind = MsgEventKind::kDelay;
      ev.release_step = release;
      emit(ev);
      held_.push_back(Held{dst, std::move(msg), release});
      return;
    }
  }
  if (roll(plan.dup_rate)) {
    Endpoint::Incoming copy = msg;
    in_flight_.fetch_add(2, std::memory_order_acq_rel);
    messages_duplicated_.fetch_add(1, std::memory_order_relaxed);
    ev.kind = MsgEventKind::kDuplicate;
    emit(ev);
    endpoint(dst).enqueue(std::move(msg));
    endpoint(dst).enqueue(std::move(copy));
    return;
  }
  if (roll(plan.delay_rate)) {
    const std::uint64_t release =
        current_step_ + 1 +
        chaos_rng_.below(std::max<std::uint32_t>(plan.max_delay_steps, 1));
    in_flight_.fetch_add(1, std::memory_order_acq_rel);
    messages_delayed_.fetch_add(1, std::memory_order_relaxed);
    ev.kind = MsgEventKind::kDelay;
    ev.release_step = release;
    emit(ev);
    held_.push_back(Held{dst, std::move(msg), release});
    return;
  }
  if (roll(plan.reorder_rate)) {
    in_flight_.fetch_add(1, std::memory_order_acq_rel);
    if (endpoint(dst).enqueue_front(std::move(msg))) {
      messages_reordered_.fetch_add(1, std::memory_order_relaxed);
      ev.kind = MsgEventKind::kReorder;
      emit(ev);
    }
    // Front-pushed into an empty inbox: nothing was displaced, so this is a
    // plain delivery — neither counted nor traced as a reorder.
    return;
  }
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  endpoint(dst).enqueue(std::move(msg));
}

std::chrono::nanoseconds Fabric::transit_time(std::size_t bytes) {
  auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(link_.latency);
  if (link_.bandwidth_bytes_per_sec > 0.0) {
    ns += std::chrono::nanoseconds(static_cast<std::int64_t>(
        static_cast<double>(bytes) / link_.bandwidth_bytes_per_sec * 1e9));
  }
  if (link_.jitter.count() > 0) {
    std::lock_guard lock(jitter_mutex_);
    ns += std::chrono::nanoseconds(static_cast<std::int64_t>(
        jitter_rng_.uniform() *
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                link_.jitter)
                                .count())));
  }
  return ns;
}

AmHandlerId Endpoint::register_handler(AmHandler handler) {
  std::lock_guard lock(handlers_mutex_);
  handlers_.push_back(std::move(handler));
  return static_cast<AmHandlerId>(handlers_.size() - 1);
}

void Endpoint::send(NodeId dst, AmHandlerId handler,
                    std::vector<std::byte> payload) {
  obs::ChargedSpan span(obs::Cat::kComm, "send",
                        static_cast<std::uint16_t>(id_), comm_time_);
  const std::size_t bytes = payload.size();
  fabric_->bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
  const std::size_t pair = id_ * fabric_->node_count() + dst;
  fabric_->pair_messages_[pair].fetch_add(1, std::memory_order_relaxed);
  fabric_->pair_bytes_[pair].fetch_add(bytes, std::memory_order_relaxed);
  if (fabric_->chaos_enabled_.load(std::memory_order_acquire)) {
    fabric_->chaos_send(id_, dst, handler, std::move(payload));
    return;
  }
  Endpoint& target = fabric_->endpoint(dst);
  // The in-flight balance must be incremented before the message becomes
  // deliverable so the termination detector can never observe an empty
  // fabric while a message is being handed over.
  fabric_->messages_sent_.fetch_add(1, std::memory_order_relaxed);
  fabric_->in_flight_.fetch_add(1, std::memory_order_acq_rel);
  target.enqueue(Incoming{
      .src = id_,
      .handler = handler,
      .payload = std::move(payload),
      .deliverable_at = util::Clock::now() + fabric_->transit_time(bytes),
  });
}

void Endpoint::enqueue(Incoming msg) {
  {
    std::lock_guard lock(mutex_);
    inbox_.push_back(std::move(msg));
  }
  doorbell_.ring();
}

bool Endpoint::enqueue_front(Incoming msg) {
  bool displaced = false;
  {
    std::lock_guard lock(mutex_);
    displaced = !inbox_.empty();
    inbox_.push_front(std::move(msg));
  }
  doorbell_.ring();
  return displaced;
}

std::size_t Endpoint::poll() {
  std::size_t delivered = 0;
  for (;;) {
    Incoming msg;
    {
      std::lock_guard lock(mutex_);
      if (inbox_.empty()) break;
      if (inbox_.front().deliverable_at > util::Clock::now()) break;
      msg = std::move(inbox_.front());
      inbox_.pop_front();
    }
    AmHandler* handler = nullptr;
    {
      std::lock_guard lock(handlers_mutex_);
      assert(msg.handler < handlers_.size());
      handler = &handlers_[msg.handler];
    }
    if (fabric_->chaos_enabled_.load(std::memory_order_acquire)) {
      fabric_->emit(MessageEvent{.kind = MsgEventKind::kDeliver,
                                 .src = msg.src,
                                 .dst = id_,
                                 .handler = msg.handler,
                                 .pair_seq = msg.pair_seq,
                                 .bytes = msg.payload.size()});
    }
    {
      obs::ChargedSpan span(obs::Cat::kComm, "deliver",
                            static_cast<std::uint16_t>(id_), comm_time_);
      util::ByteReader reader(msg.payload);
      (*handler)(msg.src, reader);
    }
    // Consumed only after the handler ran: a handler that enqueues local
    // work does so before the detector can see this message leave flight.
    fabric_->messages_delivered_.fetch_add(1, std::memory_order_relaxed);
    fabric_->in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    ++delivered;
  }
  return delivered;
}

bool Endpoint::inbox_empty() const {
  std::lock_guard lock(mutex_);
  return inbox_.empty();
}

std::size_t Endpoint::inbox_involving(NodeId peer) const {
  std::lock_guard lock(mutex_);
  if (peer == id_) return inbox_.size();
  std::size_t n = 0;
  for (const Incoming& msg : inbox_) {
    if (msg.src == peer) ++n;
  }
  return n;
}

}  // namespace mrts::net
