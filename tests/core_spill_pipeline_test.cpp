// Spill pipeline, runtime layer: clean-spill elision (an eviction of an
// object whose dirty generation matches its on-disk blob skips
// serialize+store entirely) and the bounded write-behind budget for
// soft-pressure evictions. Also the two accounting bugfixes that ride
// along: queued_messages_ stays exact across poison drops, and a failed
// write-behind store can never leave an Entry claiming a blob identity for
// bytes that never landed.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "core/runtime.hpp"
#include "simnet/fabric.hpp"
#include "storage/mem_store.hpp"

namespace mrts::core {
namespace {

// Deterministic failure switchboard (same shape as core_recovery_test):
// each failure is scripted by the test, never drawn from seeded rates.
class FlakyStore final : public storage::StorageBackend {
 public:
  explicit FlakyStore(std::unique_ptr<storage::StorageBackend> inner)
      : inner_(std::move(inner)) {}

  std::atomic<int> fail_next_loads{0};
  std::atomic<bool> fail_all_loads{false};
  std::atomic<bool> fail_all_stores{false};

  util::Status store(storage::ObjectKey key,
                     std::span<const std::byte> bytes) override {
    if (fail_all_stores.load()) {
      return util::Status(util::StatusCode::kIoError,
                          "injected hard store failure");
    }
    return inner_->store(key, bytes);
  }
  util::Result<std::vector<std::byte>> load(storage::ObjectKey key) override {
    if (fail_all_loads.load()) {
      return util::Status(util::StatusCode::kUnavailable,
                          "injected load failure");
    }
    if (fail_next_loads.load() > 0) {
      fail_next_loads.fetch_sub(1);
      return util::Status(util::StatusCode::kUnavailable,
                          "injected load failure");
    }
    return inner_->load(key);
  }
  util::Status erase(storage::ObjectKey key) override {
    return inner_->erase(key);
  }
  bool contains(storage::ObjectKey key) const override {
    return inner_->contains(key);
  }
  std::size_t count() const override { return inner_->count(); }
  std::uint64_t stored_bytes() const override {
    return inner_->stored_bytes();
  }
  storage::BackendStats stats() const override { return inner_->stats(); }

 private:
  std::unique_ptr<storage::StorageBackend> inner_;
};

// Stores park on a gate until the test opens it; loads pass through. Lets a
// test hold a write-behind spill in flight for as long as it likes.
class GatedStore final : public storage::StorageBackend {
 public:
  explicit GatedStore(std::unique_ptr<storage::StorageBackend> inner)
      : inner_(std::move(inner)) {}

  void close_gate() {
    std::lock_guard lock(mu_);
    open_ = false;
  }
  void open_gate() {
    {
      std::lock_guard lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

  util::Status store(storage::ObjectKey key,
                     std::span<const std::byte> bytes) override {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return open_; });
    return inner_->store(key, bytes);
  }
  util::Result<std::vector<std::byte>> load(storage::ObjectKey key) override {
    return inner_->load(key);
  }
  util::Status erase(storage::ObjectKey key) override {
    return inner_->erase(key);
  }
  bool contains(storage::ObjectKey key) const override {
    return inner_->contains(key);
  }
  std::size_t count() const override { return inner_->count(); }
  std::uint64_t stored_bytes() const override {
    return inner_->stored_bytes();
  }
  storage::BackendStats stats() const override { return inner_->stats(); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = true;
  std::unique_ptr<storage::StorageBackend> inner_;
};

class Box : public MobileObject {
 public:
  std::uint64_t value = 0;
  std::vector<std::uint64_t> data;

  void serialize(util::ByteWriter& out) const override {
    out.write(value);
    out.write_vector(data);
  }
  void deserialize(util::ByteReader& in) override {
    value = in.read<std::uint64_t>();
    data = in.read_vector<std::uint64_t>();
  }
  std::size_t footprint_bytes() const override {
    return sizeof(Box) + data.size() * 8;
  }
};

struct Harness {
  net::Fabric fabric{1};
  ObjectTypeRegistry registry;
  FlakyStore* flaky = nullptr;  // owned by the runtime
  std::shared_ptr<storage::MemStore> checkpoint_store;
  std::unique_ptr<Runtime> rt;
  TypeId type = 0;
  HandlerId h_add = 0;
  HandlerId h_get = 0;  // read-only: must not dirty the object
  std::atomic<std::uint64_t> last_get{0};

  explicit Harness(std::size_t budget_kb, RuntimeOptions options = {},
                   bool with_checkpoint_store = false) {
    options.ooc.memory_budget_bytes = budget_kb << 10;
    options.storage_retry.max_retries = 0;  // one attempt: faults are scripted
    if (with_checkpoint_store) {
      checkpoint_store = std::make_shared<storage::MemStore>();
      options.recovery.checkpoint_store = checkpoint_store;
    }
    auto backend =
        std::make_unique<FlakyStore>(std::make_unique<storage::MemStore>());
    flaky = backend.get();
    rt = std::make_unique<Runtime>(0, fabric.endpoint(0), registry,
                                   std::move(backend), options);
    type = registry.register_type<Box>("box");
    h_add = registry.register_handler(
        type, [](Runtime&, MobileObject& obj, MobilePtr, NodeId,
                 util::ByteReader& in) {
          static_cast<Box&>(obj).value += in.read<std::uint64_t>();
        });
    h_get = registry.register_handler(
        type,
        [this](Runtime&, MobileObject& obj, MobilePtr, NodeId,
               util::ByteReader&) {
          last_get.store(static_cast<Box&>(obj).value);
        },
        /*read_only=*/true);
  }

  MobilePtr make_box(std::size_t words) {
    auto [ptr, box] = rt->create<Box>(type);
    box->data.assign(words, 3);
    rt->refresh_footprint(ptr);
    return ptr;
  }

  void pump(int max_iters = 100000) {
    int quiet = 0;
    for (int i = 0; i < max_iters && quiet < 3; ++i) {
      if (!rt->progress_once()) {
        if (rt->is_idle()) ++quiet;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      } else {
        quiet = 0;
      }
    }
  }

  /// Touch every object in order (lock → pump → unlock → pump), cycling the
  /// whole set through core so each one reloads and is evicted again.
  void cycle_all(const std::vector<MobilePtr>& ptrs) {
    for (MobilePtr p : ptrs) {
      rt->lock_in_core(p);
      pump();
      rt->unlock(p);
      pump();
    }
    rt->flush_stores();
    pump();
  }

  MobilePtr find_cold(const std::vector<MobilePtr>& ptrs) {
    rt->flush_stores();
    for (MobilePtr p : ptrs) {
      if (!rt->is_in_core(p)) return p;
    }
    return kNullPtr;
  }

  static std::vector<std::byte> arg_u64(std::uint64_t v) {
    util::ByteWriter w;
    w.write(v);
    return w.take();
  }
};

// ---------------------------------------------------------------------------
// Clean-spill elision

TEST(SpillPipeline, CleanReloadEvictReloadElides) {
  Harness h(/*budget_kb=*/256);
  std::vector<MobilePtr> ptrs;
  for (int i = 0; i < 8; ++i) ptrs.push_back(h.make_box(8000));
  h.pump();

  // Two warm passes: after them every box has a sealed blob on the backend
  // and nothing has been modified since its last (real) spill.
  h.cycle_all(ptrs);
  h.cycle_all(ptrs);

  const std::uint64_t bytes_before = h.rt->counters().bytes_spilled.load();
  const std::uint64_t elided_before = h.rt->counters().spills_elided.load();

  // Read-mostly pass: every reload→evict cycle must elide the store.
  for (MobilePtr p : ptrs) {
    h.rt->lock_in_core(p);
    h.pump();
    auto* obj = h.rt->peek(p);
    ASSERT_NE(obj, nullptr);
    EXPECT_EQ(static_cast<Box&>(*obj).value, 0u);
    ASSERT_EQ(static_cast<Box&>(*obj).data.size(), 8000u);
    EXPECT_EQ(static_cast<Box&>(*obj).data[0], 3u);
    h.rt->unlock(p);
    h.pump();
  }
  h.rt->flush_stores();
  h.pump();

  EXPECT_EQ(h.rt->counters().bytes_spilled.load(), bytes_before)
      << "a clean eviction serialized and stored bytes again";
  EXPECT_GT(h.rt->counters().spills_elided.load(), elided_before);
  EXPECT_GT(h.rt->counters().bytes_spill_elided.load(), 0u);
}

TEST(SpillPipeline, GoldenElisionCounters) {
  // Synchronous storage + a single object: the counter stream is exact.
  RuntimeOptions options;
  options.synchronous_storage = true;
  Harness h(/*budget_kb=*/16, options);
  const MobilePtr p = h.make_box(1500);  // ~12 KB: soft pressure at 16 KB
  h.pump();

  ASSERT_FALSE(h.rt->is_in_core(p)) << "soft pressure did not evict";
  const std::uint64_t blob = h.rt->counters().bytes_spilled.load();
  ASSERT_GT(blob, 0u);
  EXPECT_EQ(h.rt->counters().objects_spilled.load(), 1u);
  EXPECT_EQ(h.rt->counters().spills_elided.load(), 0u);

  h.rt->lock_in_core(p);
  h.pump();
  EXPECT_EQ(h.rt->counters().objects_loaded.load(), 1u);
  EXPECT_EQ(h.rt->counters().bytes_loaded.load(), blob);

  h.rt->unlock(p);
  h.pump();
  ASSERT_FALSE(h.rt->is_in_core(p));
  EXPECT_EQ(h.rt->counters().spills_elided.load(), 1u);
  EXPECT_EQ(h.rt->counters().bytes_spill_elided.load(), blob);
  EXPECT_EQ(h.rt->counters().bytes_spilled.load(), blob)
      << "the elided eviction must not store bytes";
  EXPECT_EQ(h.rt->counters().objects_spilled.load(), 1u);

  // And the blob it elided against is still loadable with identical content.
  h.rt->lock_in_core(p);
  h.pump();
  auto* obj = h.rt->peek(p);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(static_cast<Box&>(*obj).value, 0u);
  EXPECT_EQ(static_cast<Box&>(*obj).data.size(), 1500u);
}

TEST(SpillPipeline, DirtyEvictionStoresAgain) {
  RuntimeOptions options;
  options.synchronous_storage = true;
  Harness h(/*budget_kb=*/16, options);
  const MobilePtr p = h.make_box(1500);
  h.pump();
  const std::uint64_t blob = h.rt->counters().bytes_spilled.load();
  ASSERT_GT(blob, 0u);

  // Mutating handler bumps the dirty generation: the next eviction must
  // serialize and store a fresh blob.
  h.rt->send(p, h.h_add, Harness::arg_u64(5));
  h.pump();
  h.rt->flush_stores();
  h.pump();
  ASSERT_FALSE(h.rt->is_in_core(p));
  EXPECT_EQ(h.rt->counters().spills_elided.load(), 0u);
  EXPECT_EQ(h.rt->counters().bytes_spilled.load(), 2 * blob);

  h.rt->lock_in_core(p);
  h.pump();
  auto* obj = h.rt->peek(p);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(static_cast<Box&>(*obj).value, 5u);
}

TEST(SpillPipeline, ReadOnlyHandlerKeepsObjectClean) {
  RuntimeOptions options;
  options.synchronous_storage = true;
  Harness h(/*budget_kb=*/16, options);
  const MobilePtr p = h.make_box(1500);
  h.pump();
  const std::uint64_t blob = h.rt->counters().bytes_spilled.load();
  ASSERT_GT(blob, 0u);

  // A handler registered read-only reloads the object but leaves its dirty
  // generation alone: the eviction after it elides.
  h.rt->send(p, h.h_get, Harness::arg_u64(0));
  h.pump();
  h.rt->flush_stores();
  h.pump();
  EXPECT_EQ(h.last_get.load(), 0u);
  ASSERT_FALSE(h.rt->is_in_core(p));
  EXPECT_EQ(h.rt->counters().spills_elided.load(), 1u);
  EXPECT_EQ(h.rt->counters().bytes_spilled.load(), blob);
}

// Counts its departures from core in serialized state, and marks itself
// dirty when it does, as MobileObject::on_unregister asks of such overrides.
class DepartureCountingBox : public Box {
 public:
  std::uint64_t departures = 0;

  void serialize(util::ByteWriter& out) const override {
    Box::serialize(out);
    out.write(departures);
  }
  void deserialize(util::ByteReader& in) override {
    Box::deserialize(in);
    departures = in.read<std::uint64_t>();
  }
  void on_unregister(Runtime&) override {
    ++departures;
    mark_dirty();
  }
};

TEST(SpillPipeline, OnUnregisterMarkDirtyDefeatsElision) {
  Harness h(/*budget_kb=*/256);
  const TypeId type =
      h.registry.register_type<DepartureCountingBox>("departures");
  std::vector<MobilePtr> ptrs;
  for (int i = 0; i < 8; ++i) {
    auto [p, box] = h.rt->create<DepartureCountingBox>(type);
    box->data.assign(8000, 3);
    h.rt->refresh_footprint(p);
    ptrs.push_back(p);
  }
  h.pump();
  for (int pass = 0; pass < 3; ++pass) h.cycle_all(ptrs);

  // Every eviction ran on_unregister, which dirtied the object: none may
  // elide, or the blob it keeps predates the change.
  const NodeCounters& c = h.rt->counters();
  const std::uint64_t evictions =
      c.objects_spilled.load() + c.spills_elided.load();
  EXPECT_GE(evictions, 24u);
  EXPECT_EQ(c.spills_elided.load(), 0u);

  // Bring every box back without evicting any: together they must have
  // kept every departure.
  h.rt->set_memory_budget(std::size_t{64} << 20);
  for (MobilePtr p : ptrs) h.rt->lock_in_core(p);
  h.pump();
  std::uint64_t kept = 0;
  for (MobilePtr p : ptrs) {
    auto* box = static_cast<DepartureCountingBox*>(h.rt->peek(p));
    ASSERT_NE(box, nullptr);
    kept += box->departures;
  }
  EXPECT_EQ(kept, evictions);
}

TEST(SpillPipeline, ForcedSpillModeDisablesElision) {
  RuntimeOptions options;
  options.synchronous_storage = true;
  options.spill_elision = false;
  Harness h(/*budget_kb=*/16, options);
  const MobilePtr p = h.make_box(1500);
  h.pump();
  const std::uint64_t blob = h.rt->counters().bytes_spilled.load();
  ASSERT_GT(blob, 0u);

  // Forced-spill mode keeps the old contract: the blob is erased on reload
  // and every eviction stores again.
  h.rt->lock_in_core(p);
  h.pump();
  EXPECT_EQ(h.rt->spill_backend().count(), 0u)
      << "forced-spill mode must erase the blob when the object reloads";
  h.rt->unlock(p);
  h.pump();
  h.rt->flush_stores();
  h.pump();
  ASSERT_FALSE(h.rt->is_in_core(p));
  EXPECT_EQ(h.rt->counters().spills_elided.load(), 0u);
  EXPECT_EQ(h.rt->counters().bytes_spill_elided.load(), 0u);
  EXPECT_EQ(h.rt->counters().bytes_spilled.load(), 2 * blob);
}

TEST(SpillPipeline, ElidedEvictionStaysCheckpointRecoverable) {
  // The recovery ladder compares a checkpoint copy against the last-spill
  // CRC. An elided eviction reuses that blob identity untouched, so rung 2
  // must still accept the copy after any number of elided cycles.
  RuntimeOptions options;
  options.synchronous_storage = true;
  Harness h(/*budget_kb=*/16, options, /*with_checkpoint_store=*/true);
  const MobilePtr p = h.make_box(1500);
  h.pump();
  h.rt->lock_in_core(p);
  h.pump();
  h.rt->unlock(p);
  h.pump();
  ASSERT_FALSE(h.rt->is_in_core(p));
  ASSERT_EQ(h.rt->counters().spills_elided.load(), 1u);

  util::ByteWriter image;
  ASSERT_TRUE(h.rt->checkpoint_to(image).is_ok());
  ASSERT_TRUE(h.checkpoint_store->contains(p.id));

  h.flaky->fail_all_loads = true;
  h.rt->send(p, h.h_add, Harness::arg_u64(7));
  h.pump();
  EXPECT_EQ(h.rt->counters().checkpoint_recoveries.load(), 1u);
  EXPECT_EQ(h.rt->object_health(p), ObjectHealth::kHealthy);
  // Pressure may already have evicted the recovered object again (its
  // post-handler spill goes to the healthy store path); heal the device and
  // pull it back in to inspect the state.
  h.flaky->fail_all_loads = false;
  h.rt->lock_in_core(p);
  h.pump();
  auto* obj = h.rt->peek(p);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(static_cast<Box&>(*obj).value, 7u);
}

// ---------------------------------------------------------------------------
// Satellite 3: a failed write-behind store leaves no phantom blob identity

TEST(SpillPipeline, FailedStoreNeverLeavesElidableIdentity) {
  RuntimeOptions options;
  options.synchronous_storage = true;
  Harness h(/*budget_kb=*/16, options);
  const MobilePtr p = h.make_box(1500);
  h.pump();
  ASSERT_GT(h.rt->counters().bytes_spilled.load(), 0u);

  // Dirty the object, then fail every store: the eviction must reinstall
  // the object and wipe its blob identity — a later eviction must not elide
  // against the stale blob (that would silently roll `value` back to 0).
  // The pin keeps the object in core until the fault is armed, so the dirty
  // eviction cannot slip through on a healthy device.
  h.rt->lock_in_core(p);
  h.rt->send(p, h.h_add, Harness::arg_u64(5));
  h.pump();
  h.flaky->fail_all_stores = true;
  h.rt->unlock(p);
  h.pump(2000);
  EXPECT_GT(h.rt->counters().spills_reinstalled.load(), 0u);
  EXPECT_EQ(h.rt->object_health(p), ObjectHealth::kHealthy);

  h.flaky->fail_all_stores = false;
  const std::uint64_t bytes_before = h.rt->counters().bytes_spilled.load();
  h.pump();
  h.rt->flush_stores();
  h.pump();
  ASSERT_FALSE(h.rt->is_in_core(p));
  EXPECT_EQ(h.rt->counters().spills_elided.load(), 0u)
      << "an eviction elided against a blob that never landed";
  EXPECT_GT(h.rt->counters().bytes_spilled.load(), bytes_before);

  h.rt->lock_in_core(p);
  h.pump();
  auto* obj = h.rt->peek(p);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(static_cast<Box&>(*obj).value, 5u)
      << "reload served stale pre-mutation bytes";
}

TEST(SpillPipeline, LoadWantedDuringFailedStoreIsSatisfiedByReinstall) {
  RuntimeOptions options;
  options.synchronous_storage = true;
  Harness h(/*budget_kb=*/16, options);
  h.flaky->fail_all_stores = true;
  const MobilePtr p = h.make_box(1500);
  // Soft pressure spills the box; the store fails inline, and its completion
  // waits for the next drain, so the entry is still storing when it is
  // locked.
  for (int i = 0; i < 10 && h.rt->counters().objects_spilled.load() == 0;
       ++i) {
    h.rt->progress_once();
  }
  ASSERT_FALSE(h.rt->is_in_core(p));
  h.rt->lock_in_core(p);
  h.rt->progress_once();  // drains the failed store: reinstalled in core
  ASSERT_TRUE(h.rt->is_in_core(p));
  EXPECT_EQ(h.rt->counters().spills_reinstalled.load(), 1u);

  // The reinstall satisfied the lock's load request: nothing is pending, so
  // the node must go idle.
  h.rt->unlock(p);
  h.flaky->fail_all_stores = false;
  bool idle = false;
  for (int i = 0; i < 1000 && !idle; ++i) {
    if (!h.rt->progress_once()) idle = h.rt->is_idle();
  }
  EXPECT_TRUE(idle) << "a satisfied load request kept the node busy";
}

// ---------------------------------------------------------------------------
// Write-behind budget

TEST(SpillPipeline, WriteBehindBudgetBoundsInFlightSpills) {
  net::Fabric fabric{1};
  ObjectTypeRegistry registry;
  RuntimeOptions options;
  options.ooc.memory_budget_bytes = 64u << 10;
  options.write_behind_max_bytes = 1;  // one soft-pressure spill at a time
  auto backend =
      std::make_unique<GatedStore>(std::make_unique<storage::MemStore>());
  GatedStore* gate = backend.get();
  Runtime rt(0, fabric.endpoint(0), registry, std::move(backend), options);
  const TypeId type = registry.register_type<Box>("box");

  std::vector<MobilePtr> ptrs;
  for (int i = 0; i < 6; ++i) {
    auto [ptr, box] = rt.create<Box>(type);
    box->data.assign(1000, 3);  // ~8 KB each: soft pressure, no hard pressure
    rt.refresh_footprint(ptr);
    ptrs.push_back(ptr);
  }

  gate->close_gate();
  // Re-open the gate no matter how the test exits: the runtime destructor
  // drains the store and would deadlock against a closed gate.
  struct GateGuard {
    GatedStore* g;
    ~GateGuard() { g->open_gate(); }
  } guard{gate};

  // Soft pressure wants several evictions, but with one store parked on the
  // gate the write-behind budget is exhausted: no further spill may issue.
  for (int i = 0; i < 400; ++i) {
    rt.progress_once();
    if (i % 32 == 0) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  EXPECT_EQ(rt.counters().objects_spilled.load(), 1u)
      << "soft pressure issued spills beyond the write-behind budget";
  EXPECT_EQ(rt.resident_objects(), 5u);
  EXPECT_GT(rt.write_behind_inflight_bytes(), 0u);

  gate->open_gate();
  int quiet = 0;
  for (int i = 0; i < 100000 && quiet < 3; ++i) {
    if (!rt.progress_once()) {
      if (rt.is_idle()) ++quiet;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    } else {
      quiet = 0;
    }
  }
  rt.flush_stores();
  while (rt.progress_once()) {
  }
  EXPECT_EQ(rt.write_behind_inflight_bytes(), 0u);
  EXPECT_GE(rt.counters().objects_spilled.load(), 2u)
      << "draining the in-flight store should unblock the next eviction";
}

// ---------------------------------------------------------------------------
// Satellite 2: queued_messages_ accounting across poison drops

TEST(SpillPipeline, PoisonedObjectLeavesQueueAccountingClean) {
  Harness h(/*budget_kb=*/256);
  std::vector<MobilePtr> ptrs;
  for (int i = 0; i < 8; ++i) ptrs.push_back(h.make_box(8000));
  h.pump();
  const MobilePtr cold = h.find_cold(ptrs);
  ASSERT_FALSE(cold.is_null()) << "budget did not force any spills";

  // Dead device, no checkpoint store: the ladder bottoms out at poison with
  // three messages sitting in the object's queue. All three must be dropped
  // AND accounted — the queued_messages gauge returns to zero.
  h.flaky->fail_all_loads = true;
  for (int i = 0; i < 3; ++i) h.rt->send(cold, h.h_add, Harness::arg_u64(1));
  h.pump();

  EXPECT_EQ(h.rt->object_health(cold), ObjectHealth::kPoisoned);
  EXPECT_EQ(h.rt->counters().poisoned_messages_dropped.load(), 3u);
  EXPECT_EQ(h.rt->queued_messages(), 0u)
      << "poison drop leaked queued_messages_ accounting";
  EXPECT_TRUE(h.rt->is_idle());

  // Sends to an already-poisoned object drop on arrival and must not move
  // the gauge either.
  h.rt->send(cold, h.h_add, Harness::arg_u64(1));
  h.pump();
  EXPECT_EQ(h.rt->counters().poisoned_messages_dropped.load(), 4u);
  EXPECT_EQ(h.rt->queued_messages(), 0u);
}

// ---------------------------------------------------------------------------
// Satellite 1: the hard threshold deflates when the largest blob leaves

TEST(SpillPipeline, MigrationAwayRestoresSpillThreshold) {
  net::Fabric fabric{2};
  ObjectTypeRegistry registry;
  RuntimeOptions options;
  options.ooc.memory_budget_bytes = 64u << 10;
  auto mk = [&](NodeId node) {
    return std::make_unique<Runtime>(node, fabric.endpoint(node), registry,
                                     std::make_unique<storage::MemStore>(),
                                     options);
  };
  auto rt0 = mk(0);
  auto rt1 = mk(1);
  const TypeId type = registry.register_type<Box>("box");

  auto pump_both = [&] {
    int quiet = 0;
    for (int i = 0; i < 100000 && quiet < 3; ++i) {
      const bool did = rt0->progress_once() | rt1->progress_once();
      if (!did) {
        if (rt0->is_idle() && rt1->is_idle()) ++quiet;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      } else {
        quiet = 0;
      }
    }
    rt0->flush_stores();
    rt1->flush_stores();
  };

  // Four small boxes pinned in core plus one huge one-off: pressure can
  // only evict the huge box, which then dominates the hard threshold.
  std::vector<MobilePtr> small;
  for (int i = 0; i < 4; ++i) {
    auto [ptr, box] = rt0->create<Box>(type);
    box->data.assign(1200, 3);
    rt0->refresh_footprint(ptr);
    rt0->lock_in_core(ptr);
    small.push_back(ptr);
  }
  auto [huge, hbox] = rt0->create<Box>(type);
  hbox->data.assign(6000, 3);  // ~48 KB blob
  rt0->refresh_footprint(huge);
  pump_both();
  ASSERT_FALSE(rt0->is_in_core(huge)) << "pressure did not evict the huge box";
  const std::size_t huge_blob = rt0->largest_spilled_bytes();
  ASSERT_GT(huge_blob, 40000u);

  // Migrating the one-off away must shrink the threshold back: the huge
  // blob leaves node 0's backend with the object.
  rt0->migrate(huge, 1);
  pump_both();
  ASSERT_TRUE(rt1->is_local(huge));
  EXPECT_EQ(rt0->largest_spilled_bytes(), 0u)
      << "the one-off blob left but the threshold stayed inflated";

  // A later small spill re-establishes a threshold sized to what actually
  // lives on the backend now.
  rt0->unlock(small[0]);
  pump_both();
  ASSERT_FALSE(rt0->is_in_core(small[0]))
      << "soft pressure should evict the unlocked small box";
  EXPECT_GT(rt0->largest_spilled_bytes(), 0u);
  EXPECT_LT(rt0->largest_spilled_bytes(), 20000u);
}

}  // namespace
}  // namespace mrts::core
