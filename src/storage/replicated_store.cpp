#include "storage/replicated_store.hpp"

#include <cassert>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "storage/sealed_blob.hpp"
#include "util/format.hpp"

namespace mrts::storage {

ReplicatedStore::ReplicatedStore(std::unique_ptr<StorageBackend> primary,
                                 std::unique_ptr<StorageBackend> mirror,
                                 ReplicatedStoreOptions options)
    : primary_(std::move(primary)),
      mirror_(std::move(mirror)),
      options_(options),
      breaker_(options.breaker_failure_threshold,
               options.breaker_cooldown_ops) {
  assert(primary_ != nullptr && mirror_ != nullptr);
}

bool ReplicatedStore::hard_failure(util::StatusCode code) const {
  // kNotFound is an answer; everything else the primary can produce here is
  // the device misbehaving (transient refusal, I/O error, garbage payload).
  return code == util::StatusCode::kUnavailable ||
         code == util::StatusCode::kIoError ||
         code == util::StatusCode::kCorruption;
}

void ReplicatedStore::note_transition_locked(const char* what) {
  // `what` must be a string literal ("breaker.open" / "breaker.close" /
  // "breaker.probe"): the trace ring stores the pointer, not a copy.
  obs::MetricsRegistry::global()
      .counter(util::format("storage.{}", what))
      .inc();
  obs::TraceRecorder::global().instant(obs::Cat::kDisk, what,
                                       static_cast<std::uint16_t>(options_.tag),
                                       breaker_.opens());
}

void ReplicatedStore::update_hedge_ewma_locked() {
  const BackendStats s = primary_->stats();
  const std::uint64_t d_ops = s.load_ops - prev_load_ops_;
  if (d_ops > 0) {
    const std::uint64_t per_op =
        (s.virtual_load_latency_us - prev_load_virtual_us_) / d_ops;
    auto& ewma = rstats_.primary_load_ewma_us;
    // alpha = 1/4, pure integer: bit-identical under replay.
    ewma = ewma == 0 ? per_op : (3 * ewma + per_op) / 4;
  }
  prev_load_ops_ = s.load_ops;
  prev_load_virtual_us_ = s.virtual_load_latency_us;
}

void ReplicatedStore::drain_overflow_locked() {
  for (auto it = overflow_.begin(); it != overflow_.end();) {
    if (primary_->store(it->first, it->second).is_ok()) {
      primary_stale_.erase(it->first);
      overflow_bytes_ -= it->second.size();
      it = overflow_.erase(it);
    } else {
      ++it;  // still sick; the next close retries
    }
  }
}

util::Status ReplicatedStore::store(ObjectKey key,
                                    std::span<const std::byte> bytes) {
  std::lock_guard lock(mutex_);
  const BreakerState before = breaker_.state();
  util::Status primary_status(util::StatusCode::kUnavailable,
                              "primary skipped: breaker open");
  bool primary_ok = false;
  if (breaker_.allow()) {
    if (breaker_.state() != before) note_transition_locked("breaker.probe");
    primary_status = primary_->store(key, bytes);
    primary_ok = primary_status.is_ok();
    const BreakerState mid = breaker_.state();
    if (primary_ok) {
      if (breaker_.on_success() && mid != BreakerState::kClosed) {
        note_transition_locked("breaker.close");
        drain_overflow_locked();
      }
    } else if (hard_failure(primary_status.code()) && breaker_.on_failure() &&
               breaker_.state() == BreakerState::kOpen) {
      note_transition_locked("breaker.open");
    }
  } else {
    ++rstats_.redirected_stores;
  }
  if (primary_ok) {
    primary_stale_.erase(key);
  } else {
    // The latest version did not land on the primary: any older blob still
    // there must never be served (stale-replica guard).
    primary_stale_.insert(key);
  }

  const util::Status mirror_status = mirror_->store(key, bytes);
  if (mirror_status.is_ok()) {
    ++rstats_.mirror_writes;
  } else {
    ++rstats_.mirror_write_failures;
  }

  if (primary_ok || mirror_status.is_ok()) {
    if (auto it = overflow_.find(key); it != overflow_.end()) {
      overflow_bytes_ -= it->second.size();
      overflow_.erase(it);
    }
    return util::Status::ok();
  }
  // Both replicas refused: park the blob in the bounded overflow so the
  // write still completes (drained into the primary when it heals).
  if (overflow_bytes_ + bytes.size() <= options_.overflow_capacity_bytes) {
    auto& slot = overflow_[key];
    overflow_bytes_ -= slot.size();
    slot.assign(bytes.begin(), bytes.end());
    overflow_bytes_ += slot.size();
    ++rstats_.overflow_stores;
    return util::Status::ok();
  }
  return primary_status;
}

util::Result<std::vector<std::byte>> ReplicatedStore::load(ObjectKey key) {
  std::lock_guard lock(mutex_);
  // Overflow first: when both replicas were down at store time this is the
  // only (and freshest) copy.
  if (auto it = overflow_.find(key); it != overflow_.end()) {
    return it->second;
  }
  util::Status primary_status(util::StatusCode::kNotFound,
                              "primary skipped: breaker open");
  const bool stale = primary_stale_.contains(key);
  // Hedged read: if the primary has been slow lately (modeled per-load
  // latency EWMA at or past the hedge trigger), race the mirror first. A
  // sealed mirror hit wins and the slow primary op never runs — the
  // deterministic version of firing a hedge and cancelling the loser. The
  // primary copy stays valid (slow, not wrong), so no repair is needed.
  if (options_.hedged_reads && !stale &&
      rstats_.primary_load_ewma_us >= options_.hedge_latency_us) {
    ++rstats_.hedged_reads;
    auto h = mirror_->load(key);
    if (h.is_ok() && sealed_blob_valid(h.value())) {
      ++rstats_.hedge_wins;
      // A winning hedge skips the primary, so the EWMA would never see the
      // device heal. Decay it geometrically: after enough wins it drops
      // below the trigger and the primary gets re-probed (and re-sampled).
      rstats_.primary_load_ewma_us -= rstats_.primary_load_ewma_us / 16;
      return std::move(h).value();
    }
    ++rstats_.hedge_losses;  // mirror couldn't serve it; primary path below
  }
  if (!stale) {
    const BreakerState before = breaker_.state();
    if (breaker_.allow()) {
      if (breaker_.state() != before) note_transition_locked("breaker.probe");
      auto r = primary_->load(key);
      update_hedge_ewma_locked();
      if (r.is_ok() && sealed_blob_valid(r.value())) {
        const BreakerState mid = breaker_.state();
        if (breaker_.on_success() && mid != BreakerState::kClosed) {
          note_transition_locked("breaker.close");
          drain_overflow_locked();
        }
        return std::move(r).value();
      }
      primary_status = r.is_ok()
                           ? util::Status(util::StatusCode::kCorruption,
                                          "primary payload failed seal check")
                           : r.status();
      if (hard_failure(primary_status.code()) && breaker_.on_failure() &&
          breaker_.state() == BreakerState::kOpen) {
        note_transition_locked("breaker.open");
      }
    }
  }

  auto m = mirror_->load(key);
  if (m.is_ok() && sealed_blob_valid(m.value())) {
    ++rstats_.mirror_hits;
    // Scrub-on-read: rewrite the primary copy while we hold the good bytes.
    // Gated by the breaker — the repair is itself an offered operation (it
    // can be the probe that heals an open breaker).
    const BreakerState before = breaker_.state();
    if (breaker_.allow()) {
      if (breaker_.state() != before) note_transition_locked("breaker.probe");
      const BreakerState mid = breaker_.state();
      if (primary_->store(key, m.value()).is_ok()) {
        ++rstats_.repairs;
        primary_stale_.erase(key);
        if (breaker_.on_success() && mid != BreakerState::kClosed) {
          note_transition_locked("breaker.close");
          drain_overflow_locked();
        }
      } else if (breaker_.on_failure() &&
                 breaker_.state() == BreakerState::kOpen) {
        note_transition_locked("breaker.open");
      }
    }
    return std::move(m).value();
  }
  if (m.is_ok()) {
    return util::Status(util::StatusCode::kCorruption,
                        "mirror payload failed seal check");
  }
  // Neither replica could serve the key; surface the most telling status.
  if (primary_status.code() != util::StatusCode::kNotFound && !stale) {
    return primary_status;
  }
  return m.status();
}

util::Status ReplicatedStore::erase(ObjectKey key) {
  std::lock_guard lock(mutex_);
  bool was_in_overflow = false;
  if (auto it = overflow_.find(key); it != overflow_.end()) {
    overflow_bytes_ -= it->second.size();
    overflow_.erase(it);
    was_in_overflow = true;
  }
  const util::Status p = primary_->erase(key);
  if (!p.is_ok() && p.code() != util::StatusCode::kNotFound) {
    // The dead blob may linger on the primary; never serve it again.
    primary_stale_.insert(key);
  } else {
    primary_stale_.erase(key);
  }
  const util::Status m = mirror_->erase(key);
  // A blob that existed only in the overflow (both replicas were down at
  // store time) is gone now: that erase succeeded.
  if (p.is_ok() || m.is_ok() || was_in_overflow) return util::Status::ok();
  return p.code() != util::StatusCode::kNotFound ? p : m;
}

bool ReplicatedStore::contains(ObjectKey key) const {
  std::lock_guard lock(mutex_);
  return overflow_.contains(key) || primary_->contains(key) ||
         mirror_->contains(key);
}

std::size_t ReplicatedStore::count() const { return primary_->count(); }

std::uint64_t ReplicatedStore::stored_bytes() const {
  return primary_->stored_bytes();
}

BackendStats ReplicatedStore::stats() const { return primary_->stats(); }

ReplicatedStats ReplicatedStore::replicated_stats() const {
  std::lock_guard lock(mutex_);
  ReplicatedStats s = rstats_;
  s.overflow_bytes = overflow_bytes_;
  s.breaker_opens = breaker_.opens();
  s.breaker_probes = breaker_.probes();
  s.breaker_state = breaker_.state();
  return s;
}

}  // namespace mrts::storage
